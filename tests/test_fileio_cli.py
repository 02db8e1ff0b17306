import hashlib
import math
import os
import re
import string
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ripcert
from ripcert import cli
from ripcert import (
    all_pairs_steiner,
    fro_constant_search,
    gaussian_matrix,
    hadamard,
    negate_columns,
    paley_etf,
    realify,
    roc_exact_search,
    steiner_etf,
    steiner_triple,
    verify_etf,
)
from ripcert.cli import main
from ripcert.constructions import Frame, SteinerSystem
from ripcert.errors import EnumerationBudgetError, InvalidParameterError
from ripcert.fileio import (
    ReportWriter,
    read_graph,
    read_matrix,
    read_steiner,
    report_body,
    write_graph,
    write_matrix,
    write_steiner,
)
from ripcert.graphs import (
    CliqueResult,
    MixingCheck,
    SimpleGraph,
    SrgCheckResult,
    SrgParams,
)


class TestMatrixFormat:
    def test_real_roundtrip_bit_for_bit(self, tmp_path):
        frame = gaussian_matrix(5, 9, 123)
        path = tmp_path / "g.mat"
        write_matrix(path, frame)
        back = read_matrix(path)
        assert back.matrix.tobytes() == frame.matrix.tobytes()
        assert back.label == frame.label

    def test_complex_roundtrip_bit_for_bit(self, tmp_path, paley13):
        path = tmp_path / "p.mat"
        write_matrix(path, paley13)
        back = read_matrix(path)
        assert back.matrix.tobytes() == paley13.matrix.tobytes()

    def test_negative_zero_and_tiny_values_roundtrip(self, tmp_path):
        data = np.array([[1e-308, -0.0], [1e150, 1.0]])
        frame = Frame(data, label="extremes")
        path = tmp_path / "x.mat"
        write_matrix(path, frame)
        assert read_matrix(path).matrix.tobytes() == frame.matrix.tobytes()

    def test_negative_zero_imaginary_parts_roundtrip(self, tmp_path):
        data = np.array([[complex(2, -0.0), 1j], [complex(-0.0, -0.0), complex(1, 0.0)]])
        frame = Frame(data)
        assert np.signbit(frame.matrix.imag).sum() == 2
        path = tmp_path / "z.mat"
        write_matrix(path, frame)
        assert read_matrix(path).matrix.tobytes() == frame.matrix.tobytes()

    def test_negated_real_frame_roundtrip_bit_for_bit(self, tmp_path):
        # negating complex128 columns of a real frame leaves -0.0 imaginary parts,
        # which the real file format cannot carry; the frame drops them on input
        frame = negate_columns(realify(paley_etf(13)), [1, 2])
        path = tmp_path / "n.mat"
        write_matrix(path, frame)
        assert read_matrix(path).matrix.tobytes() == frame.matrix.tobytes()
        assert not np.signbit(frame.matrix.imag).any()

    def test_tiny_imaginary_parts_roundtrip_bit_for_bit(self, tmp_path):
        # the DFT Hadamard of order 2 leaves imaginary parts of 1.2e-16
        frame = steiner_etf(all_pairs_steiner(2), hadamard(2, "dft"))
        assert 0 < np.abs(frame.matrix.imag).max() < 1e-12
        path = tmp_path / "s.mat"
        write_matrix(path, frame)
        assert read_matrix(path).matrix.tobytes() == frame.matrix.tobytes()
        out = tmp_path / "cli.mat"
        assert main(["construct", "steiner", "--v", "2", "--k", "2", "--hadamard", "dft",
                     "-o", str(out)]) == 0
        assert read_matrix(out).matrix.tobytes() == frame.matrix.tobytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("not a matrix\n")
        with pytest.raises(InvalidParameterError):
            read_matrix(path)


class TestSteinerAndGraphFormats:
    def test_steiner_roundtrip(self, tmp_path):
        system = steiner_triple(9)
        path = tmp_path / "s.design"
        write_steiner(path, system)
        back = read_steiner(path)
        assert back == system

    def test_graph_roundtrip(self, tmp_path):
        g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        path = tmp_path / "g.graph"
        write_graph(path, g)
        assert np.array_equal(read_graph(path).adjacency, g.adjacency)


NUMBERS = st.one_of(
    st.integers(-2, 12),
    # counts far beyond any file's content, up to a dense graph far over the budget
    st.sampled_from([2236, 2237, 10**5, 10**9, 10**18]),
    st.integers(-(10**12), 10**12),
).map(str)
TOKENS = st.one_of(
    NUMBERS,
    st.sampled_from(
        ["x", "1.5", "-0.0", "nan", "inf", "1e999", "1+2j", ":", "0:", "3:", "\u00e9"]
        + ["rows", "cols", "complex", "label", "vertices", "ripmat", "ripsteiner", "ripgraph"]
    ),
    st.text(string.ascii_letters + string.digits + string.punctuation, min_size=1, max_size=4),
)
LINES = st.lists(TOKENS, max_size=6).map(" ".join)
VALID = {
    "matrix": "ripmat 1\nrows 2\ncols 3\ncomplex 0\nlabel m\n1 0 0.5\n0 1 0.5\n",
    "steiner": "ripsteiner 1\n4 2\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "graph": "ripgraph 1\nvertices 4\n0: 1 2\n1: 0\n2: 0\n3:\n",
}
READERS = {
    "matrix": (read_matrix, Frame, ["certify", "{}", "-o", "{}"]),
    "steiner": (read_steiner, SteinerSystem, ["construct", "steiner", "--design", "{}", "-o", "{}"]),
    "graph": (read_graph, SimpleGraph, ["graph", "--graph-in", "{}", "-o", "{}"]),
}


def cli_argv(kind, path, out):
    """The command line that reads ``path`` as a file of this kind."""
    names = iter([str(path), str(out)])
    return [next(names) if a == "{}" else a for a in READERS[kind][2]]


@st.composite
def edited_files(draw):
    """A valid file of some kind with up to four edits: a line replaced, inserted
    or deleted, or one token of a line replaced by a number."""
    kind = draw(st.sampled_from(sorted(VALID)))
    lines = VALID[kind].splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["replace", "insert", "delete", "renumber"]))
        if action == "insert" or i == len(lines):
            lines.insert(i, draw(LINES))
        elif action == "replace":
            lines[i] = draw(LINES)
        elif action == "delete":
            del lines[i]
        elif lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(NUMBERS)
            lines[i] = " ".join(tokens)
    return kind, "\n".join(lines) + "\n"


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "kind, text, where",
        [
            ("matrix", "ripmat 1\nrows x\ncols 2\n1 2\n", ":2:"),
            ("matrix", "ripmat 1\nrows 1\ncols 2\n1 abc\n", ":4:"),
            ("steiner", "ripsteiner 1\n7\n", ":2:"),
            ("steiner", "ripsteiner 1\n7 3 1\n", ":2:"),
            ("graph", "ripgraph 1\nvertices 3\n0: 1 3\n", ":3:"),
            ("graph", "ripgraph 1\nvertices 3\n0: -1\n", ":3:"),
        ],
    )
    def test_error_names_file_and_line(self, tmp_path, capsys, kind, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidParameterError, match=f"bad.txt{where}"):
            READERS[kind][0](path)
        assert main(cli_argv(kind, path, tmp_path / "out.txt")) == 1
        assert "bad.txt" + where in capsys.readouterr().err

    @pytest.mark.parametrize("vertices", [2237, 10**5, 10**9])
    def test_graph_over_budget_is_refused_at_the_header(self, tmp_path, capsys, vertices):
        # the dense adjacency matrix would need vertices^2 entries
        path = tmp_path / "big.graph"
        path.write_text(f"ripgraph 1\nvertices {vertices}\n0: 1\n")
        with pytest.raises(EnumerationBudgetError, match="big.graph:2:"):
            read_graph(path)
        assert main(cli_argv("graph", path, tmp_path / "out.txt")) == 3
        assert "big.graph:2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, data, message",
        [
            ("matrix", b"ripmat 1\nrows 1\ncols 1\n\xc3\xa9\n", ": not an ASCII text file"),
            ("steiner", b"ripsteiner 1\n", ": truncated file"),
            ("matrix", b"ripmat 1\nrows 0\ncols 2\n", ": need rows, cols >= 1, got 0, 2"),
            ("matrix", b"ripmat 1\nrows 2\ncols 2\n1 2\n", ": expected 2 data rows"),
            ("graph", b"ripgraph 1\nvertices -1\n", ":2: negative vertex count -1"),
        ],
        ids=["non-ascii", "truncated", "no-rows", "missing-rows", "negative-vertices"],
    )
    def test_refusal_is_one_error_line_naming_the_file(
        self, tmp_path, monkeypatch, capsys, kind, data, message
    ):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        monkeypatch.chdir(tmp_path)
        assert main(cli_argv(kind, path, "out.txt")) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"
        assert not (tmp_path / "out.txt").exists()

    def test_graph_at_budget_is_read(self, tmp_path):
        path = tmp_path / "edge.graph"
        path.write_text("ripgraph 1\nvertices 2236\n0: 2235\n")
        assert read_graph(path).n == 2236

    @settings(
        max_examples=200,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edited_files())
    @example(("graph", "ripgraph 1\nvertices 1000000000\n0: 1\n"))
    def test_any_text_is_read_or_rejected(self, tmp_path, case):
        kind, text = case
        path = tmp_path / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        reader, result_type, _ = READERS[kind]
        try:
            result = reader(path)
        except InvalidParameterError:
            assert main(cli_argv(kind, path, tmp_path / "out.txt")) == 1
        except EnumerationBudgetError:
            assert main(cli_argv(kind, path, tmp_path / "out.txt")) == 3
        else:
            assert isinstance(result, result_type)


class TestConstructCommand:
    def test_paley5_matches_library(self, tmp_path, capsys):
        out = tmp_path / "paley5.mat"
        assert main(["construct", "paley", "--p", "5", "-o", str(out)]) == 0
        frame = read_matrix(out)
        assert np.array_equal(frame.matrix, paley_etf(5).matrix)
        assert "coherence" in capsys.readouterr().out

    def test_steiner_eq_matrix(self, tmp_path, steiner_6x16):
        out = tmp_path / "s.mat"
        assert main(["construct", "steiner", "--v", "4", "--k", "2", "-o", str(out)]) == 0
        assert np.array_equal(read_matrix(out).matrix, steiner_6x16.matrix)

    def test_gaussian_runs_are_identical(self, tmp_path):
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        for out in (a, b):
            args = ["construct", "gaussian", "--m", "8", "--n", "12", "--seed", "7", "-o", str(out)]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_steiner_from_design_file(self, tmp_path):
        design = tmp_path / "v9.design"
        write_steiner(design, steiner_triple(9))
        out = tmp_path / "v9.mat"
        assert main(["construct", "steiner", "--design", str(design), "-o", str(out)]) == 0
        frame = read_matrix(out)
        assert (frame.m, frame.n) == (12, 45)

    def test_invalid_parameters_exit_one(self, tmp_path):
        out = tmp_path / "x.mat"
        assert main(["construct", "paley", "--p", "9", "-o", str(out)]) == 1
        assert main(["construct", "paley", "--p", "7", "-o", str(out)]) == 1
        assert main(["construct", "steiner", "--v", "8", "--k", "3", "-o", str(out)]) == 1

    @pytest.mark.parametrize(
        "family, what",
        [
            (["paley", "--p", "1000000009"], "a paley frame of order 1000000009"),
            (["gaussian", "--m", "200000", "--n", "200000", "--seed", "1"],
             "a 200000x200000 gaussian frame"),
            (["bernoulli", "--m", "3000", "--n", "2000", "--seed", "1"],
             "a 3000x2000 bernoulli frame"),
            (["steiner", "--v", "200001", "--k", "2"],
             "the incidence matrix of a (2,2,200001) design"),
            (["steiner", "--v", "2001", "--k", "3"],
             "the incidence matrix of a (2,3,2001) design"),
            (["steiner", "--v", "200", "--k", "2"], "a 19900x40000 steiner frame"),
        ],
    )
    def test_oversized_matrix_exits_three(self, tmp_path, capsys, family, what):
        out = tmp_path / "x.mat"
        assert main(["construct", *family, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} requires")
        assert "matrix entries, exceeding the budget of 5000000" in err
        assert not out.exists()

    def test_oversized_gram_exits_three_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "wide.mat"
        start = time.perf_counter()
        code = main(["construct", "gaussian", "--m", "1", "--n", "100000", "--seed", "1",
                     "-o", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err == (
            "error: the 100000x100000 gram matrix requires 10000000000 Gram entries, "
            "exceeding the budget of 15000000\n"
        )
        assert not out.exists()

    def test_oversized_row_gram_exits_three_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "tall.mat"
        code = main(["construct", "gaussian", "--m", "5000000", "--n", "1", "--seed", "1",
                     "-o", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: the 5000000x5000000 row gram matrix requires 25000000000000 row Gram "
            "entries, exceeding the budget of 15000000\n"
        )
        assert not out.exists()


@pytest.fixture()
def paley5_file(tmp_path):
    out = tmp_path / "paley5.mat"
    assert main(["construct", "paley", "--p", "5", "-o", str(out)]) == 0
    return out


@pytest.fixture()
def steiner_file(tmp_path):
    out = tmp_path / "s.mat"
    assert main(["construct", "steiner", "--v", "4", "--k", "2", "-o", str(out)]) == 0
    return out


class TestCertifyCommand:
    def test_paley5_exact_equals_gershgorin(self, tmp_path, paley5_file):
        rep = tmp_path / "rep.txt"
        code = main(
            ["certify", str(paley5_file), "--exact-ric", "3", "--gershgorin", "-o", str(rep)]
        )
        assert code == 0
        text = rep.read_text()
        values = {}
        for line in text.splitlines():
            if ":" in line:
                key, _, val = line.partition(":")
                values[key.strip()] = val.strip()
        assert math.isclose(float(values["ric-exact"]), 2 / math.sqrt(5), abs_tol=1e-10)
        assert math.isclose(
            float(values["ric-exact"]), float(values["gershgorin"]), abs_tol=1e-9
        )
        assert values["ric-exact-count"] == "20"

    def test_steiner_spark(self, tmp_path, steiner_file):
        rep = tmp_path / "rep.txt"
        assert main(["certify", str(steiner_file), "--spark", "4", "-o", str(rep)]) == 0
        assert "spark: 4" in rep.read_text()

    def test_spark_reports_the_sizes_decided_by_discs(self, tmp_path, steiner_file):
        rep = tmp_path / "rep.txt"
        assert main(["certify", str(steiner_file), "--spark", "4", "-o", str(rep)]) == 0
        lines = rep.read_text().splitlines()
        # sizes 1-3 are certified; the first 4-subset is the witness
        assert "tested: 697" in lines
        assert "# spark sizes 1-3 decided by Gershgorin discs, 1 enumerated" in lines

    def test_fro_k_at_the_column_count_is_clipped(self, tmp_path):
        # K > n exits 1 (TestUsageErrors); K = n clips the subset sizes to n - 1
        mat = tmp_path / "g.mat"
        write_matrix(mat, gaussian_matrix(4, 6, 1))

        def fro_lines(name, k):
            rep = tmp_path / name
            assert main(["certify", str(mat), "--fro", k, "-o", str(rep)]) == 0
            return [line for line in rep.read_text().splitlines() if line.startswith("fro-")]

        at_n = fro_lines("six.txt", "6")
        assert "fro-count: 301" in at_n
        assert at_n == fro_lines("five.txt", "5")

    def test_fro_reports_the_rows_settled_by_sorted_ceilings(self, tmp_path):
        mat = tmp_path / "g.mat"
        frame = gaussian_matrix(11, 22, 7)
        write_matrix(mat, frame)
        rep = tmp_path / "rep.txt"
        assert main(["certify", str(mat), "--fro", "2", "--fro", "3", "-o", str(rep)]) == 0
        text = rep.read_text()
        for k, rows in ((2, 253), (3, 1793)):
            settled = fro_constant_search(frame, k).settled
            assert 0 < settled < rows
            line = f"# fro rows: {settled} of {rows} settled by sorted ceilings"
            assert line in text.splitlines()
        assert "# fro rows" not in report_body(text)

    def test_roc_reports_the_first_members_settled_by_group_ceilings(self, tmp_path):
        mat = tmp_path / "g.mat"
        frame = gaussian_matrix(11, 22, 7)
        write_matrix(mat, frame)
        rep = tmp_path / "rep.txt"
        assert main(["certify", str(mat), "--roc", "2", "--roc", "3", "-o", str(rep)]) == 0
        text = rep.read_text()
        # C(22, k) first members, less the C(2k - 1, k) that have no partner
        for k, groups in ((2, 228), (3, 1530)):
            settled = roc_exact_search(frame, k).settled
            assert 0 < settled < groups
            line = f"# roc groups: {settled} of {groups} first members settled by group ceilings"
            assert line in text.splitlines()
        assert "# roc groups" not in report_body(text)

    def test_power_sequence_is_reported(self, tmp_path, paley5_file):
        rep = tmp_path / "rep.txt"
        code = main(
            ["certify", str(paley5_file), "--power", "3", "1,2,3,4", "-o", str(rep)]
        )
        assert code == 0
        vals = []
        for line in rep.read_text().splitlines():
            if line.startswith("power-q"):
                vals.append(float(line.split(":")[1]))
        assert len(vals) == 4
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_budget_exit_three(self, tmp_path, steiner_file):
        rep = tmp_path / "rep.txt"
        code = main(
            ["certify", str(steiner_file), "--exact-ric", "8", "--budget", "100", "-o", str(rep)]
        )
        assert code == 3

    def test_oversized_gram_exits_three(self, tmp_path, capsys):
        wide = tmp_path / "wide.mat"
        write_matrix(wide, Frame(np.ones((1, 3873))))
        assert main(["certify", str(wide), "-o", str(tmp_path / "rep.txt")]) == 3
        assert "3873x3873 gram matrix requires" in capsys.readouterr().err

    def test_overflowing_gram_prints_only_the_error_line(self, tmp_path):
        # numpy warnings bypass capsys, so the command runs in its own interpreter
        big = tmp_path / "big.mat"
        write_matrix(big, Frame(np.full((1, 2), 1.3e154)))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ripcert.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "ripcert.cli", "certify", str(big), "-o",
             str(tmp_path / "rep.txt")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: matrix entries must be finite\n"

    def test_overflowing_column_norm_prints_only_the_error_line(self, tmp_path):
        big = tmp_path / "big.mat"
        big.write_text("ripmat 1\nrows 1\ncols 2\n1e200 1e200\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ripcert.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "ripcert.cli", "certify", str(big), "-o",
             str(tmp_path / "rep.txt")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {big}: every frame column must have finite positive norm\n"

    def test_huge_frame_certifies_without_a_warning(self, tmp_path):
        # Gram entries near 1e200: squared Frobenius norms and cross-Gram entries overflow
        huge, rep = tmp_path / "huge.mat", tmp_path / "rep.txt"
        huge.write_text(
            "ripmat 1\nrows 2\ncols 4\n1e100 2e100 -1e100 3e100\n2e100 -1e100 1e100 1e100\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(ripcert.__file__)),
            PYTHONWARNINGS="error::RuntimeWarning",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ripcert.cli", "certify", str(huge), "--exact-ric", "2",
             "--power", "2", "2,8", "--roc", "2", "-o", str(rep)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        fields = dict(line.partition(": ")[::2] for line in rep.read_text().splitlines())
        assert fields["violations"] == "0"
        exact = float(fields["ric-exact"])
        powers = [float(value) for key, value in fields.items() if key.startswith("power-q")]
        assert len(powers) == 2 and all(power >= exact for power in powers)
        assert math.isfinite(float(fields["roc-exact"]))

    @pytest.mark.parametrize("search", [["--exact-ric", "2"], []])
    def test_negative_budget_is_usage_error(self, tmp_path, steiner_file, capsys, search):
        rep = tmp_path / "rep.txt"
        code = main(["certify", str(steiner_file), *search, "--budget", "-1", "-o", str(rep)])
        assert code == 1
        assert "budget must be >= 0" in capsys.readouterr().err

    def test_gershgorin_alone_is_usage_error(self, tmp_path, paley5_file):
        assert main(["certify", str(paley5_file), "--gershgorin", "-o", "x"]) == 1

    def test_non_integer_power_k_is_usage_error(self, tmp_path, paley5_file, capsys):
        code = main(["certify", str(paley5_file), "--power", "x", "2", "-o", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: expected an integer, got 'x'")

    @pytest.mark.parametrize(
        "power", [["--power", "2", "1", "--power", "2", "3"], ["--power", "2", "3,1,3"]]
    )
    def test_power_lists_merge_sorted_and_unique(self, tmp_path, paley5_file, power):
        def power_lines(name, flags):
            rep = tmp_path / name
            assert main(["certify", str(paley5_file), *flags, "-o", str(rep)]) == 0
            return [line for line in rep.read_text().splitlines() if line.startswith("power-q")]

        merged = power_lines("merged.txt", power)
        assert [line.partition(":")[0] for line in merged] == ["power-q1", "power-q3"]
        assert merged == power_lines("sorted.txt", ["--power", "2", "1,3"])

    def test_empty_power_list_is_usage_error(self, tmp_path, paley5_file, capsys):
        rep = tmp_path / "r.txt"
        assert main(["certify", str(paley5_file), "--power", "2", ",", "-o", str(rep)]) == 1
        assert capsys.readouterr().err == "error: --power 2 needs at least one q\n"
        assert not rep.exists()

    def test_non_integer_worker_count_exits_one(self, tmp_path, paley5_file, monkeypatch, capsys):
        monkeypatch.setenv("RIPCERT_WORKERS", "x")
        rep = tmp_path / "r.txt"
        assert main(["certify", str(paley5_file), "--exact-ric", "2", "-o", str(rep)]) == 1
        assert capsys.readouterr().err == "error: RIPCERT_WORKERS='x' is not an integer\n"
        assert not rep.exists()
        # trials run in order, so the error comes from the first trial's search
        argv = ["mc", "power", "--m", "8", "--n", "12", "--k", "2", "--q", "2", "--delta", "0.5",
                "--trials", "3", "--seed", "1", "-o", str(rep)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: RIPCERT_WORKERS='x' is not an integer\n"
        assert not rep.exists()


    @pytest.mark.parametrize("shape, missing", [((4, 3), "welch-bound"), ((3, 1), "coherence")])
    def test_frame_without_coherence_or_welch_bound(self, tmp_path, shape, missing):
        # a 4 x 3 frame has no Welch bound (n < m), a one-column frame no coherence
        mat, rep = tmp_path / "f.mat", tmp_path / "rep.txt"
        write_matrix(mat, Frame(np.eye(*shape)))
        assert main(["certify", str(mat), "--exact-ric", "1", "-o", str(rep)]) == 0
        keys = [line.partition(":")[0] for line in rep.read_text().splitlines()]
        assert missing not in keys and "delta1" in keys


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "paley", "--p", "13"],
            ["certify", "{F}", "--exact-ric", "x", "-o", "out"],
            ["construct", "steiner", "--v", "4", "--k", "2", "--hadamard", "bogus", "-o", "out"],
            ["bogus"],
            ["certify", "{F}", "--nope", "-o", "out"],
        ],
    )
    def test_argparse_failures_exit_one_with_one_error_line(
        self, tmp_path, paley5_file, monkeypatch, capsys, argv
    ):
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        capsys.readouterr()
        assert main([str(paley5_file) if a == "{F}" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert list(run.iterdir()) == []

    # each raised OverflowError before q, K, m, k1 and k2 were bounded; --fro 20 on
    # 14 columns wrote a report before K > n was refused, as --exact-ric 20 is
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "{F}", "--power", "2", str(2**1023)],
            ["mc", "power", "--m", "8", "--n", "12", "--k", "2", "--q", str(10**400),
             "--delta", "0.5", "--trials", "2", "--seed", "1"],
            ["graph", "{F}", "--trace-expansion", "0,1", str(2**1023)],
            ["certify", "{F}", "--gershgorin", "--exact-ric", str(10**400)],
            ["certify", "{F}", "--gershgorin", "--roc", str(10**400)],
            ["certify", "{F}", "--gershgorin", "--power", str(10**400), "2"],
            ["certify", "{F}", "--fro", str(10**400), "--bounds"],
            ["certify", "{F}", "--gershgorin", "--fro", str(10**400)],
            ["mc", "tail", "--m", str(2**1024), "--k1", "2", "--k2", "2", "--trials", "10",
             "--seed", "1"],
            ["mc", "tail", "--m", "16", "--k1", str(2**600), "--k2", str(2**600),
             "--trials", "10", "--seed", "1"],
            ["certify", "{F}", "--fro", "20"],
        ],
        ids=["power-q", "mc-power-q", "trace-expansion-q", "gershgorin-ric-k",
             "gershgorin-roc-k", "gershgorin-power-k", "fro-bounds-k", "gershgorin-fro-k",
             "tail-m", "tail-k1-k2", "fro-k-above-n"],
    )
    def test_out_of_range_integers_exit_one_with_one_error_line(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        frame = tmp_path / "p13.mat"
        assert main(["construct", "paley", "--p", "13", "-o", str(frame)]) == 0
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        capsys.readouterr()
        assert main([str(frame) if a == "{F}" else a for a in argv] + ["-o", "out"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert list(run.iterdir()) == []

    # an invalid q is refused before the budget, with or without --exact-ric at its K
    @pytest.mark.parametrize("exact", [["--exact-ric", "4"], []], ids=["exact-ric", "power-only"])
    def test_invalid_q_over_budget_exits_one(self, tmp_path, monkeypatch, capsys, exact):
        frame = tmp_path / "p13.mat"
        assert main(["construct", "paley", "--p", "13", "-o", str(frame)]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        argv = ["certify", str(frame), *exact, "--power", "4", "0", "--budget", "10", "-o", "out"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: need integer q >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "steiner", "--v", "7"], "steiner needs --v and --k (or --design FILE)"),
            (["mc", "fro", "--m", ",", "--n", "12", "--k", "2", "--delta", "0.5", "--trials",
              "2", "--seed", "1"], "--m needs at least one value"),
            (["construct", "paley", "--p", "4000"],
             "p=4000 is not 1 (mod 4); pass --allow-3mod4 to override"),
            (["graph", "--paley-graph", "4000"], "paley graphs need p = 1 (mod 4), got 4000"),
        ],
        ids=["steiner-without-k", "mc-empty-m", "paley-frame-4000", "paley-graph-4000"],
    )
    def test_refusal_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv, message):
        # a Paley order that is not 1 (mod 4) is refused at any size, before the budget
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "-o", "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["mc", "fro", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: ripcert")


class TestGraphCommand:
    def test_paley_graph_clique(self, tmp_path):
        rep = tmp_path / "rep.txt"
        code = main(["graph", "--paley-graph", "13", "--clique", "--srg-check", "-o", str(rep)])
        assert code == 0
        text = rep.read_text()
        assert "omega: 3" in text
        assert "below-sqrt-p: true" in text
        assert "srg(13,6,2,3)" in text

    def test_etf_pipeline_matches_prediction(self, tmp_path, paley5_file):
        rep = tmp_path / "rep.txt"
        code = main(["graph", str(paley5_file), "--srg-check", "-o", str(rep)])
        assert code == 0
        text = rep.read_text()
        assert "srg(5,2,0,1)" in text
        assert "matches-predicted: true" in text

    def test_mixing_and_trace_expansion(self, tmp_path):
        mat = tmp_path / "p13.mat"
        rep = tmp_path / "rep.txt"
        assert main(["construct", "paley", "--p", "13", "-o", str(mat)]) == 0
        code = main(
            [
                "graph", str(mat),
                "--mixing", "50", "--seed", "3",
                "--trace-expansion", "0,1,2,3", "2",
                "-o", str(rep),
            ]
        )
        assert code == 0
        text = rep.read_text()
        assert "all-ok: true" in text
        assert "q2-first-term: 36" in text

    def test_sign_walk_budget_exits_three_without_a_file(self, tmp_path, capsys):
        # the matrix power costs 2 k^3 log2(2q) = 2 * 95^3 * 3 multiply-adds
        mat = tmp_path / "p101.mat"
        rep = tmp_path / "rep.txt"
        assert main(["construct", "paley", "--p", "101", "-o", str(mat)]) == 0
        capsys.readouterr()
        kset = ",".join(str(c) for c in range(95))
        code = main(["graph", str(mat), "--trace-expansion", kset, "2", "-o", str(rep)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: sign-walk expansion requires 5144250 integer multiply-adds, "
            "exceeding the budget of 5000000\n"
        )
        assert not rep.exists()

    def test_ten_columns_at_q8_now_run(self, tmp_path):
        # 10^16 sign walks, once refused, are one 10 x 10 integer matrix power
        mat = tmp_path / "p13.mat"
        rep = tmp_path / "rep.txt"
        assert main(["construct", "paley", "--p", "13", "-o", str(mat)]) == 0
        code = main(["graph", str(mat), "--trace-expansion", "0,1,2,3,4,5,6,7,8,9", "8",
                     "-o", str(rep)])
        assert code == 0
        assert "ok: true" in rep.read_text().split("[trace-expansion]")[1]

    def test_walk_sum_past_the_float_range_exits_one(self, tmp_path, capsys):
        mat = tmp_path / "p13.mat"
        rep = tmp_path / "rep.txt"
        assert main(["construct", "paley", "--p", "13", "-o", str(mat)]) == 0
        capsys.readouterr()
        code = main(["graph", str(mat), "--trace-expansion", "0,1,2,3", "2000", "-o", str(rep)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: k=4, q=2000: the walk-sum bound k (k-1)^(2q) reaches 2^1024\n"
        )
        assert not rep.exists()

    def test_srg_check_on_a_1x4_frame_exits_four(self, tmp_path, capsys):
        mat = tmp_path / "s.mat"
        rep = tmp_path / "rep.txt"
        assert main(["construct", "steiner", "--v", "2", "--k", "2", "-o", str(mat)]) == 0
        capsys.readouterr()
        code = main(["graph", str(mat), "--srg-check", "-o", str(rep)])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: size 1x4 has no srg descendant: (L, lambda, mu) = (0, -2, 0)\n"
        )
        assert not rep.exists()

    def test_canonicalize_at_any_anchor(self, tmp_path, paley5_file):
        # the strongly regular descendant is anchor-independent
        for anchor in (0, 3):
            rep = tmp_path / f"rep{anchor}.txt"
            code = main(
                ["graph", str(paley5_file), "--canonicalize", str(anchor),
                 "--srg-check", "--seidel", "-o", str(rep)]
            )
            assert code == 0
            assert "matches-predicted: true" in rep.read_text()

    def test_a_frame_meets_verify_etf_once(self, tmp_path, paley5_file, monkeypatch):
        calls, equiangular = [], []
        real_equiangular = ripcert.graphs._equiangular

        def counting(frame):
            calls.append(frame)
            return verify_etf(frame)

        def counting_equiangular(g):
            equiangular.append(g)
            return real_equiangular(g)

        monkeypatch.setattr(ripcert.graphs, "verify_etf", counting)
        monkeypatch.setattr(ripcert.graphs, "_equiangular", counting_equiangular)
        for extra in ([], ["--trace-expansion", "0,1,2", "2"]):
            calls.clear()
            equiangular.clear()
            rep = tmp_path / "rep.txt"
            code = main(
                ["graph", str(paley5_file), "--srg-check", "--seidel", *extra, "-o", str(rep)]
            )
            assert code == 0
            assert (len(calls), len(equiangular)) == (1, 1), extra
        assert "[trace-expansion]" in rep.read_text()

    def test_pentagon_pipeline_via_cli(self, tmp_path):
        rep = tmp_path / "rep.txt"
        code = main(["graph", "--paley-graph", "5", "--srg-check", "-o", str(rep)])
        assert code == 0
        assert "srg(5,2,0,1)" in rep.read_text()

    def test_graph_out_then_graph_in_roundtrip(self, tmp_path, paley5_file):
        gfile = tmp_path / "descendant.graph"
        rep1, rep2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        code = main(
            ["graph", str(paley5_file), "--srg-check", "--graph-out", str(gfile),
             "-o", str(rep1)]
        )
        assert code == 0
        code = main(
            ["graph", "--graph-in", str(gfile), "--srg-check", "--clique", "-o", str(rep2)]
        )
        assert code == 0
        text = rep2.read_text()
        assert "srg(5,2,0,1)" in text
        assert "omega: 2" in text

    def test_design_out_roundtrips_into_construct(self, tmp_path):
        design = tmp_path / "v7.design"
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        code = main(
            ["construct", "steiner", "--v", "7", "--k", "3",
             "--design-out", str(design), "-o", str(a)]
        )
        assert code == 0
        assert main(["construct", "steiner", "--design", str(design), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_complex_gram_exits_four(self, tmp_path):
        mat = tmp_path / "p7.mat"
        rep = tmp_path / "rep.txt"
        assert main(["construct", "paley", "--p", "7", "--allow-3mod4", "-o", str(mat)]) == 0
        assert main(["graph", str(mat), "--srg-check", "-o", str(rep)]) == 4

    @pytest.mark.parametrize("p", [13, 29])
    def test_a_frame_and_its_realified_twin_give_one_report(self, tmp_path, monkeypatch, p):
        # the two Grams agree up to rounding, so past the input's hash only the label
        # and mu's last digits move
        argv = ["graph", "p.mat", "--seidel", "--predicted-srg", "--srg-check", "--clique",
                "--mixing", "50", "--seed", "3", "-o", "rep.txt"]
        bodies = []
        for twin in ("as-read", "realified"):
            folder = tmp_path / twin
            folder.mkdir()
            monkeypatch.chdir(folder)
            assert main(["construct", "paley", "--p", str(p), "-o", "p.mat"]) == 0
            if twin == "realified":
                write_matrix("p.mat", realify(read_matrix("p.mat")))
            assert main(argv) == 0
            bodies.append(report_body((folder / "rep.txt").read_text()).splitlines())
        as_read, realified = bodies
        assert len(as_read) == len(realified)
        moved = {a.split(": ")[0]: (a, b) for a, b in zip(as_read, realified) if a != b}
        assert set(moved) == {"input-sha256", "label", "coherence"}
        assert moved["label"] == (f"label: paley-etf p={p}", f"label: paley-etf p={p} realified")
        mus = [float(line.split(": ")[1]) for line in moved["coherence"]]
        assert math.isclose(*mus, abs_tol=1e-12)

    @pytest.mark.parametrize("real", [False, True])
    def test_a_zero_row_fails_graph_as_it_fails_verify_etf(self, tmp_path, capsys, real):
        # the row Gram sees the zero row, so the padded frame is not tight as read
        frame = realify(paley_etf(13)) if real else paley_etf(13)
        padded = Frame(np.vstack([frame.matrix, np.zeros(frame.n)]))
        assert not verify_etf(padded).all_ok
        mat, rep = tmp_path / "padded.mat", tmp_path / "rep.txt"
        write_matrix(mat, padded)
        assert main(["graph", str(mat), "--srg-check", "-o", str(rep)]) == 1
        assert capsys.readouterr().err.startswith("error: frame fails the tight-frame axioms")
        assert not rep.exists()

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["graph", "-o", str(tmp_path / "rep.txt")]) == 1

    def test_non_integer_trace_expansion_q_is_usage_error(self, tmp_path, paley5_file, capsys):
        code = main(
            ["graph", str(paley5_file), "--trace-expansion", "0,1,2", "x",
             "-o", str(tmp_path / "rep.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: expected an integer, got 'x'")

    def test_negative_mixing_count_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["graph", "--paley-graph", "13", "--mixing", "-5", "-o", str(tmp_path / "rep.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --mixing must be >= 0, got -5")
        assert not (tmp_path / "rep.txt").exists()

    def test_mixing_on_a_graph_without_vertices_is_usage_error(self, tmp_path, capsys):
        gfile = tmp_path / "g0.graph"
        gfile.write_text("ripgraph 1\nvertices 0\n")
        rep = tmp_path / "rep.txt"
        code = main(["graph", "--graph-in", str(gfile), "--mixing", "3", "-o", str(rep)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --mixing needs a graph with")
        assert not rep.exists()

    def test_more_than_one_input_is_usage_error(self, tmp_path, paley5_file, capsys):
        gfile = tmp_path / "g.graph"
        write_graph(gfile, SimpleGraph.from_edges(3, [(0, 1)]))
        code = main(
            ["graph", "--paley-graph", "13", "--graph-in", str(gfile), str(paley5_file),
             "--seidel", "--trace-expansion", "0,1", "2", "-o", str(tmp_path / "rep.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: graph takes one input")

    @pytest.mark.parametrize(
        "flag",
        [["--canonicalize", "0"], ["--seidel"], ["--predicted-srg"],
         ["--trace-expansion", "0,1", "2"]],
    )
    @pytest.mark.parametrize("source", ["--paley-graph", "--graph-in"])
    def test_frame_only_flag_with_a_graph_input_is_usage_error(
        self, tmp_path, capsys, flag, source
    ):
        gfile = tmp_path / "g.graph"
        write_graph(gfile, SimpleGraph.from_edges(3, [(0, 1)]))
        value = "13" if source == "--paley-graph" else str(gfile)
        code = main(["graph", source, value, *flag, "-o", str(tmp_path / "rep.txt")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag[0]} needs a matrix file")

    @pytest.mark.parametrize("p", [2237, 1_000_000_009])
    def test_paley_graph_over_budget_exits_three(self, tmp_path, capsys, p):
        code = main(["graph", "--paley-graph", str(p), "-o", str(tmp_path / "rep.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: a paley graph of order {p} requires")
        assert "adjacency entries" in err


#: report-body sha256 of each step, pinned from the two-path graph command
GOLDEN_GRAPH_REPORTS = [
    # its clique section comes from the search on N(0) & N(1)
    (["graph", "--paley-graph", "61", "--srg-check", "--clique", "--mixing", "50",
      "--seed", "3", "-o", "a.txt"],
     "d9e41b448972e01914bb6c237837aff821e91e17ed0c67a9b3aa2d66155e44f2"),
    (["graph", "p29.mat", "--seidel", "--predicted-srg", "--srg-check", "--clique",
      "--mixing", "50", "--seed", "3", "--trace-expansion", "0,1,2,3,4", "2",
      "--graph-out", "G", "-o", "b.txt"],
     "5f43b50df803934c4d30e8c52e467857c41783d25e900d71f180d8687abbd35c"),
    (["graph", "--graph-in", "G", "--srg-check", "--clique", "-o", "c.txt"],
     "08b7d53b9b481329819d7decd71a10677d646703757d0463626fbbf506630ca8"),
]


def test_golden_graph_report_bodies(tmp_path, monkeypatch):
    # report bodies name their inputs, so the paths are relative to one directory
    monkeypatch.chdir(tmp_path)
    write_matrix("p29.mat", realify(paley_etf(29)))
    for argv, digest in GOLDEN_GRAPH_REPORTS:
        assert main(argv) == 0
        body = report_body((tmp_path / argv[-1]).read_text())
        assert hashlib.sha256(body.encode()).hexdigest() == digest, argv


#: report-body sha256 of mc and certify runs, pinned before the trial loops merged
GOLDEN_MC_CERTIFY_REPORTS = [
    # fro-constant and delta1 failures, and the 20-line failure cap
    (["mc", "fro", "--m", "8,16", "--n", "12", "--k", "2", "--delta", "0.5",
      "--trials", "20", "--seed", "1", "-o", "a.txt"],
     "0ecd2865a9d0c0ff3461ab3658f9f43a5380d8430497bd67095b664c0df2caf6"),
    (["mc", "power", "--m", "8,64", "--n", "12", "--k", "2", "--q", "2", "--delta", "0.5",
      "--trials", "20", "--seed", "2", "-o", "b.txt"],
     "f21ff241c33f37f68b6b9578427885a2345d66ebe32ee966ee6cf352565c8824"),
    (["mc", "fro", "--m", "8", "--n", "12", "--k", "3", "--delta", "0.5", "--trials", "20",
      "--seed", "3", "--ensemble", "bernoulli", "-o", "c.txt"],
     "7905cd7c607d2079841bc788cb45332811ce0ce1bccb3c049d75c06ceff8c8df"),
    (["mc", "tail", "--m", "16", "--k1", "2", "--k2", "2", "--trials", "20000",
      "--seed", "5", "-o", "d.txt"],
     "488d15f4a534c34298c625d0abd5ded2be9c219705cbe6703bceced67c7248dd"),
    (["certify", "p13.mat", "--gershgorin", "--exact-ric", "3", "--power", "3", "2",
      "--roc", "2", "--fro", "2", "--spark", "4", "--bounds", "-o", "e.txt"],
     "ed48ac0c72b7e3d71cd69e0e5c21e8e361cc384df08c24dfb949ad11f998130f"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_golden_mc_and_certify_report_bodies(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RIPCERT_WORKERS", workers)
    assert main(["construct", "paley", "--p", "13", "-o", "p13.mat"]) == 0
    for argv, digest in GOLDEN_MC_CERTIFY_REPORTS:
        assert main(argv) == 0
        body = report_body((tmp_path / argv[-1]).read_text())
        assert hashlib.sha256(body.encode()).hexdigest() == digest, argv


def _disagreeing_routes(real):
    def planted(*args, **kwargs):
        result = real(*args, **kwargs)
        return replace(result, expansion=result.direct + 1.0)

    return planted


def _tail_above_its_bound(real):
    def planted(*args, **kwargs):
        table = real(*args, **kwargs)
        half = table.trials // 2
        top = replace(table.rows[-1], count=table.trials, pos_count=half,
                      neg_count=table.trials - half)
        return replace(table, rows=table.rows[:-1] + (top,))

    return planted


class TestInvariantExits:
    """Each exit-2 line of ``graph`` and ``mc tail``, reached by a planted failing result."""

    @pytest.mark.parametrize(
        "name, fake, argv, message",
        [
            ("expander_mixing_check", lambda real: lambda g, i, j: MixingCheck(2.0, 1.0, 1.0, 0.0),
             ["graph", "--paley-graph", "13", "--mixing", "1"], "mixing bound failed for I="),
            ("predicted_srg", lambda real: lambda m, n: SrgParams(13, 6, 2, 3),
             ["graph", "{F}", "--srg-check"],
             "descendant graph is srg(5,2,0,1), expected srg(13,6,2,3)"),
            ("srg_check", lambda real: lambda g: SrgCheckResult("not-srg", None, "planted"),
             ["graph", "--paley-graph", "13", "--srg-check"],
             "paley graph of order 13 failed strong regularity"),
            ("paley_clique_number", lambda real: lambda g: CliqueResult(4, (0, 1, 3, 9), True, 1),
             ["graph", "--paley-graph", "13", "--clique"],
             "clique number 4 is not below sqrt(13)"),
            ("seidel_trace_expansion", _disagreeing_routes,
             ["graph", "{F}", "--trace-expansion", "0,1,2", "1"],
             "trace expansion routes disagree"),
            ("column_sum_tail", _tail_above_its_bound,
             ["mc", "tail", "--m", "16", "--k1", "2", "--k2", "2", "--trials", "1000",
              "--seed", "1"],
             "m=16: empirical tail exceeded its bound"),
        ],
        ids=["mixing", "descendant", "paley-srg", "clique", "trace-expansion", "tail"],
    )
    def test_a_failed_check_exits_two(
        self, tmp_path, paley5_file, monkeypatch, capsys, name, fake, argv, message
    ):
        monkeypatch.setattr(cli, name, fake(getattr(cli, name)))
        rep = tmp_path / "rep.txt"
        capsys.readouterr()
        assert main([str(paley5_file) if a == "{F}" else a for a in argv] + ["-o", str(rep)]) == 2
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith(f"invariant violation: {message}")
        lines = rep.read_text().splitlines()
        assert "violations: 1" in lines
        violation = err.removeprefix("invariant violation: ")
        assert [line for line in lines if line.startswith("violation-")] == [
            f"violation-0: {violation}"
        ]


class TestMcCommand:
    def test_tail_bounds_hold(self, tmp_path):
        rep = tmp_path / "rep.txt"
        code = main(
            ["mc", "tail", "--m", "16", "--k1", "2", "--k2", "2",
             "--trials", "5000", "--seed", "1", "-o", str(rep)]
        )
        assert code == 0
        assert "violations: 0" in rep.read_text()

    def test_tail_at_a_large_m_draws_two_scalars_per_trial(self, tmp_path):
        # the exact law draws no m-wide block, so m = 10**6 runs in well under a second
        rep = tmp_path / "rep.txt"
        start = time.perf_counter()
        code = main(["mc", "tail", "--m", "251,1000000", "--k1", "2", "--k2", "2",
                     "--trials", "20000", "--seed", "1", "-o", str(rep)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        text = rep.read_text()
        assert "\nviolations: 0\n" in text
        rows = text.split("\n[m=1000000]\n")[1].split("\n[")[0].splitlines()
        far = [row for row in rows if row.startswith("theta-") and not row.startswith("theta-0.0:")]
        assert len(far) == 10
        assert all(" count=0 " in row for row in far), far

    def test_one_trial_raises_no_asymmetry_alarm(self, tmp_path, capsys):
        # with one trial every sample falls on one side of every threshold
        for seed in range(1, 5):
            main(["mc", "tail", "--m", "16,64", "--k1", "2", "--k2", "2", "--trials", "1",
                  "--seed", str(seed), "-o", str(tmp_path / "rep.txt")])
            captured = capsys.readouterr()
            assert "tail asymmetry" not in captured.err, seed
            assert "tail asymmetry" not in (tmp_path / "rep.txt").read_text(), seed

    def test_fro_sweep_report(self, tmp_path):
        rep = tmp_path / "rep.txt"
        code = main(
            ["mc", "fro", "--m", "8,16", "--n", "12", "--k", "2", "--delta", "0.5",
             "--trials", "5", "--seed", "1", "-o", str(rep)]
        )
        assert code == 0
        assert "frequencies:" in rep.read_text()

    def test_power_reports_threshold_flag(self, tmp_path):
        rep = tmp_path / "rep.txt"
        code = main(
            ["mc", "power", "--m", "64", "--n", "12", "--k", "2", "--q", "1",
             "--delta", "0.5", "--trials", "5", "--seed", "2", "-o", str(rep)]
        )
        assert code == 0
        assert "meets-measurement-bound:" in rep.read_text()

    def test_power_with_a_tiny_delta_does_not_meet_the_bound(self, tmp_path):
        # delta**2 underflows to 0 here; the threshold is infinite, not a ZeroDivisionError
        rep = tmp_path / "p.txt"
        code = main(
            ["mc", "power", "--m", "8", "--n", "10", "--k", "2", "--q", "1",
             "--delta", "1e-200", "--trials", "2", "--seed", "1", "-o", str(rep)]
        )
        assert code == 0
        assert "meets-measurement-bound: false" in rep.read_text()

    @pytest.mark.parametrize("kind", ["fro", "power"])
    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_usage_error(self, tmp_path, capsys, kind, delta):
        rep = tmp_path / "rep.txt"
        q = ["--q", "1"] if kind == "power" else []
        code = main(
            ["mc", kind, "--m", "8", "--n", "10", "--k", "2", *q, "--delta", delta,
             "--trials", "3", "--seed", "1", "-o", str(rep)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: delta must be finite and positive")
        assert not rep.exists()

    @pytest.mark.parametrize(
        "argv, workers",
        [
            (["mc", "fro", "--m", "8,16", "--n", "12", "--k", "2", "--delta", "0.5",
              "--trials", "5", "--seed", "1"], "2"),
            (["mc", "power", "--m", "8,64", "--n", "12", "--k", "2", "--q", "1",
              "--delta", "0.5", "--trials", "5", "--seed", "2"], "2"),
            # the tail table runs serially whatever RIPCERT_WORKERS says
            (["mc", "tail", "--m", "16,64", "--k1", "2", "--k2", "2", "--trials", "5000",
              "--seed", "1"], "1"),
        ],
    )
    def test_every_row_ends_with_its_wall_time(self, tmp_path, monkeypatch, argv, workers):
        monkeypatch.setenv("RIPCERT_WORKERS", "2")
        rep = tmp_path / "rep.txt"
        assert main(argv + ["-o", str(rep)]) == 0
        text = rep.read_text()
        rows = [sec for sec in text.split("\n[")[1:] if sec.startswith("m=")]
        assert len(rows) == 2
        for sec in rows:
            assert re.fullmatch(rf"# wall \d+\.\d{{6}}s workers {workers}", sec.splitlines()[-1])
        assert "# wall" not in report_body(text)


class TestReportDeterminism:
    @pytest.mark.parametrize(
        "value", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"]
    )
    def test_numpy_bools_render_like_bools(self, value):
        assert ReportWriter.render(value) == ("true" if value else "false")

    def test_same_seed_byte_identical_bodies(self, tmp_path):
        reps = []
        for name in ("a.txt", "b.txt"):
            rep = tmp_path / name
            code = main(
                ["mc", "fro", "--m", "8", "--n", "12", "--k", "2", "--delta", "0.5",
                 "--trials", "5", "--seed", "9", "-o", str(rep)]
            )
            assert code == 0
            reps.append(report_body(rep.read_text()))
        assert reps[0] == reps[1]

    def test_worker_counts_do_not_change_bodies(self, tmp_path, paley5_file, monkeypatch):
        bodies = []
        for workers, name in (("1", "w1.txt"), ("4", "w4.txt")):
            monkeypatch.setenv("RIPCERT_WORKERS", workers)
            rep = tmp_path / name
            code = main(
                ["certify", str(paley5_file), "--exact-ric", "3", "--roc", "2",
                 "--fro", "2", "--spark", "4", "--bounds", "-o", str(rep)]
            )
            assert code == 0
            bodies.append(report_body(rep.read_text()))
        assert bodies[0] == bodies[1]
