"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; every tolerance and runtime limit is asserted here.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ripcert import (
    TrialConfig,
    clique_number,
    column_sum_tail,
    delta1,
    descendant_graph,
    fro_constant_search,
    gaussian_matrix,
    hadamard,
    paley_etf,
    paley_graph,
    predicted_srg,
    realify,
    ric_exact_search,
    ric_power_search,
    roc_exact_search,
    run_fro_trials,
    run_power_trials,
    seidel_from_gram,
    seidel_trace_expansion,
    select_t,
    spark_search,
    srg_check,
    steiner_etf,
    steiner_triple,
    verify_etf,
    welch_bound,
)
from ripcert.cli import main
from ripcert.constructions import all_pairs_steiner
from ripcert.fileio import read_matrix, report_body
from ripcert.modular import legendre_symbol

PRINTED_STEINER_SIGNS = [
    "+-+-+-+-........",
    "++--....+-+-....",
    "+--+........+-+-",
    "....++--++--....",
    "....+--+....++--",
    "........+--++--+",
]


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeded the {self.limit}s limit"
            )
        return False


def _pass(name, timer):
    print(f"\nACCEPTANCE PASS: {name} ({timer.elapsed:.2f}s)")


@pytest.fixture(scope="module")
def etf_collection():
    frames = [
        steiner_etf(all_pairs_steiner(4), hadamard(4, "sylvester")),
        steiner_etf(all_pairs_steiner(7), hadamard(7, "dft")),
        steiner_etf(all_pairs_steiner(9), hadamard(9, "dft")),
        steiner_etf(steiner_triple(7), hadamard(4, "sylvester")),
        steiner_etf(steiner_triple(9), hadamard(5, "dft")),
        paley_etf(5),
        paley_etf(13),
        paley_etf(17),
    ]
    return frames


@pytest.fixture(scope="module")
def paley13_descendant(paley13_real):
    return descendant_graph(seidel_from_gram(paley13_real)[0], paley13_real.n - 1)[1]


def test_golden_matrix_steiner(tmp_path):
    with _Timer(0.1) as t:
        out = tmp_path / "s.mat"
        assert main(["construct", "steiner", "--v", "4", "--k", "2", "-o", str(out)]) == 0
        got = read_matrix(out).matrix
        scale = 1 / math.sqrt(3)
        expected = np.array(
            [
                [{"+": scale, "-": -scale, ".": 0.0}[ch] for ch in row]
                for row in PRINTED_STEINER_SIGNS
            ]
        )
        assert np.abs(got - expected).max() <= 1e-14
    _pass("golden matrix, block-design 6x16", t)


def test_golden_matrix_paley(tmp_path):
    with _Timer(0.1) as t:
        out = tmp_path / "p.mat"
        assert main(["construct", "paley", "--p", "5", "-o", str(out)]) == 0
        got = read_matrix(out).matrix
        r15, r25 = math.sqrt(1 / 5), math.sqrt(2 / 5)
        w = np.exp(-2j * np.pi / 5)
        expected = np.array(
            [
                [r15, r15, r15, r15, r15, 1.0],
                [r25, r25 * w, r25 * w**2, r25 * w**3, r25 * w**4, 0.0],
                [r25, r25 * w**4, r25 * w**3, r25 * w**2, r25 * w, 0.0],
            ]
        )
        assert np.abs(got - expected).max() <= 1e-12
    _pass("golden matrix, quadratic-residue 3x6", t)


def test_etf_axioms_and_welch_equality(etf_collection):
    with _Timer(5.0) as t:
        for frame in etf_collection:
            report = verify_etf(frame)
            assert report.all_ok, frame.label
            assert abs(frame.coherence - welch_bound(frame.m, frame.n)) <= 1e-12
    _pass("tight-frame axioms and welch equality on all constructions", t)


def test_gauss_sum_gram(paley13):
    with _Timer(1.0) as t:
        g = paley13.gram
        for a in range(13):
            for b in range(13):
                if a == b:
                    continue
                expected = legendre_symbol(b - a, 13) / math.sqrt(13)
                assert abs(g[a, b] - expected) <= 1e-12
    _pass("quadratic Gauss sum Gram entries at p=13", t)


def test_spark_values(steiner_6x16, paley5, paley13):
    with _Timer(30.0) as t:
        assert spark_search(steiner_6x16, 4).spark == 4
        assert spark_search(paley5, 6).spark == 4
        result = spark_search(paley13, 8)
        assert result.spark == 8  # M + 1 after exhausting C(14, s<=7)
    _pass("spark: 4, 4 and M+1=8 by exhaustive search", t)


def test_clique_ric_identity(paley13_real, paley13_descendant):
    with _Timer(60.0) as t:
        omega = clique_number(paley13_descendant)
        assert omega.exact
        mu = 1 / math.sqrt(13)
        for k in range(2, omega.size + 2):
            assert abs(ric_exact_search(paley13_real, k).value - (k - 1) * mu) <= 1e-9
    _pass("clique identity: exact constant equals (K-1)/sqrt(13)", t)


def test_paley_ric_below_one(paley13_real):
    with _Timer(60.0) as t:
        for k in range(1, 8):
            assert ric_exact_search(paley13_real, k).value < 1.0
    _pass("quadratic-residue frame keeps the constant below one up to K=M", t)


def test_srg_pipeline():
    with _Timer(10.0) as t:
        for p in (5, 13, 17):
            frame = realify(paley_etf(p))
            seidel, _ = seidel_from_gram(frame)
            _, descendant = descendant_graph(seidel, frame.n - 1)
            result = srg_check(descendant)
            assert result.is_srg
            assert result.params == predicted_srg(frame.m, frame.n)
    _pass("canonicalization pipeline lands on the predicted srg parameters", t)


def test_clique_bound():
    with _Timer(60.0) as t:
        for p in (5, 13, 17, 29, 37, 41):
            result = clique_number(paley_graph(p))
            assert result.exact
            assert result.size < math.sqrt(p)
    _pass("exact clique numbers stay below sqrt(p)", t)


def test_power_method_identities(etf_collection):
    with _Timer(120.0) as t:
        for frame in etf_collection:
            mu = frame.coherence
            for k in (2, 3, 4):
                expected = math.sqrt(k * (k - 1)) * mu
                assert abs(ric_power_search(frame, k, 1).value - expected) <= 1e-10, frame.label
        gauss = gaussian_matrix(8, 16, 2024)
        for k in (2, 3, 4):
            exact = ric_exact_search(gauss, k).value
            previous = math.inf
            for q in (1, 2, 3, 4, 5):
                value = ric_power_search(gauss, k, q).value
                assert value <= previous + 1e-9
                assert exact - 1e-9 <= value <= k ** (1 / (2 * q)) * exact + 1e-9
                previous = value
    _pass("trace power identities and monotone convergence", t)


def test_seidel_trace_expansion(paley13_real):
    with _Timer(30.0) as t:
        result = seidel_trace_expansion(paley13_real, (0, 1, 2, 3), 2)
        assert abs(result.direct - result.expansion) <= 1e-9 * max(1.0, abs(result.direct))
        assert result.q2_first_term == 4 * (4 - 1) ** 2
        assert result.q2_first_term + result.q2_residual == result.tuple_sum
    _pass("sign-walk expansion matches the direct trace, with the k(k-1)^2 term", t)


def test_ro_fro_bound_chain():
    with _Timer(120.0) as t:
        for seed in range(20):
            frame = gaussian_matrix(8, 12, seed)
            d1 = delta1(frame)
            for k in (2, 3):
                theta_hat = fro_constant_search(frame, k).value
                theta = roc_exact_search(frame, k).value
                d_k = ric_exact_search(frame, k).value
                d_2k = ric_exact_search(frame, 2 * k).value
                assert theta_hat <= theta + 1e-9
                assert theta <= d_2k + 1e-9
                assert d_2k <= min(theta + d_k, 2 * theta + d1) + 1e-9
    _pass("orthogonality sandwich holds exhaustively on 20 seeded frames", t)


def test_fro_edge_count_identity(paley13_real):
    with _Timer(30.0) as t:
        seidel, mu = seidel_from_gram(paley13_real)
        adj = (seidel.entries == -1).astype(int)
        k = 3
        subs = [
            c
            for size in range(1, k + 1)
            for c in itertools.combinations(range(paley13_real.n), size)
        ]
        best = 0.0
        for first in subs:
            for second in subs:
                if set(first) & set(second):
                    continue
                edges = sum(adj[i, j] for i in first for j in second)
                best = max(
                    best,
                    2 * mu * abs(edges - len(first) * len(second) / 2)
                    / math.sqrt(len(first) * len(second)),
                )
        assert abs(fro_constant_search(paley13_real, k).value - best) <= 1e-9
    _pass("flat-orthogonality constant equals its edge-count form", t)


def test_appendix_constants():
    with _Timer(0.1) as t:
        for k in range(2, 65):
            assert select_t(k) <= math.ceil(math.log2(k))
    _pass("bound-chain t-selection", t)


def test_monte_carlo_bounds_domination():
    # the theorem-scale measurement counts are astronomically large, so
    # these seeded tail/sweep properties stand in for them
    with _Timer(300.0) as t:
        for m in (16, 64):
            table = column_sum_tail(m, 2, 2, 100_000, 1)
            for row in table.rows:
                p = row.empirical
                assert p <= row.bound + 3 * math.sqrt(p * (1 - p) / row.trials)
                assert row.ok
            assert table.all_symmetric
        fro_cfg = TrialConfig(m=8, n=24, k=2, trials=60, base_seed=1, delta=0.5)
        fro_results = [
            (m, run_fro_trials(replace(fro_cfg, m=m))) for m in (8, 16, 32, 64)
        ]
        failure = [1.0 - o.frequency for _, o in fro_results]
        assert all(a >= b - 1e-12 for a, b in zip(failure, failure[1:]))
        fro_means = [sum(o.values) / len(o.values) for _, o in fro_results]
        assert all(a > b for a, b in zip(fro_means, fro_means[1:]))
        power_cfg = TrialConfig(
            m=8, n=20, k=2, q=1, trials=60, base_seed=1, delta=0.5
        )
        power_results = [
            (m, run_power_trials(replace(power_cfg, m=m))) for m in (8, 32, 128, 512)
        ]
        freqs = [o.frequency for _, o in power_results]
        assert all(b >= a - 1e-12 for a, b in zip(freqs, freqs[1:]))
        assert freqs[-1] > freqs[0]
    _pass("empirical tails dominated by their bounds; sweeps monotone in m", t)


def test_determinism_across_runs_and_workers(tmp_path, monkeypatch):
    with _Timer(60.0) as t:
        mat = tmp_path / "p13.mat"
        assert main(["construct", "paley", "--p", "13", "-o", str(mat)]) == 0
        bodies = []
        for workers, name in (("1", "a.txt"), ("1", "b.txt"), ("4", "c.txt")):
            monkeypatch.setenv("RIPCERT_WORKERS", workers)
            rep = tmp_path / name
            code = main(
                ["certify", str(mat), "--exact-ric", "4", "--roc", "2", "--fro", "2",
                 "--spark", "6", "--bounds", "-o", str(rep)]
            )
            assert code == 0
            bodies.append(report_body(rep.read_text()))
        assert bodies[0] == bodies[1] == bodies[2]
        mc_bodies = []
        for name in ("m1.txt", "m2.txt"):
            rep = tmp_path / name
            code = main(
                ["mc", "tail", "--m", "16", "--k1", "2", "--k2", "2",
                 "--trials", "20000", "--seed", "5", "-o", str(rep)]
            )
            assert code == 0
            mc_bodies.append(report_body(rep.read_text()))
        assert mc_bodies[0] == mc_bodies[1]
    _pass("seeded outputs byte-identical across runs and worker counts", t)
