"""Output checks: every op's files against references the benchmark computes itself.

Nothing here imports ``ripcert``. Matrices and reports are parsed from
their text formats, and every reference is recomputed with numpy or in
closed form: the Welch bound and clique identity for Paley frames, the
Paley graph's strongly regular parameters, each witness's value by one
direct numpy call on that subset, and each ``*-count`` by its counting
formula. ``judge`` turns one op's exit codes and check problems into a
status: ``ok``, ``known-defect`` (the op failed exactly as its documented
baseline defect, see ``workloads.Op.known_defect``) or ``failed``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

TOL = 1e-12


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def report_body(text: str) -> str:
    """Report text without ``# `` comment lines, as ripcert.fileio.report_body defines it."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("# ")) + "\n"


def digests(workdir: Path, files) -> dict[str, str]:
    """sha256 of each existing output file's report body."""
    out = {}
    for name in files:
        path = workdir / name
        if path.is_file():
            body = report_body(path.read_text(encoding="ascii"))
            out[name] = hashlib.sha256(body.encode("ascii")).hexdigest()
    return out


def parse_report(path: Path) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("# "):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
            continue
        key, sep, value = line.partition(": ")
        if sep:
            sections[current][key] = value
    return sections


def read_matrix(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="ascii").splitlines()
    header = dict(line.partition(" ")[::2] for line in lines[1:5])
    rows, cols = int(header["rows"]), int(header["cols"])
    parse = complex if header["complex"] == "1" else float
    data = [[parse(tok) for tok in line.split()] for line in lines[-rows:]]
    out = np.array(data)
    if out.shape != (rows, cols):
        raise ValueError(f"{path.name}: shape {out.shape}, header says {(rows, cols)}")
    return out


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _srg(p: int) -> str:
    return f"srg({p},{(p - 1) // 2},{(p - 5) // 4},{(p - 1) // 4})"


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def mixed_pair_count(n: int, k: int) -> int:
    return sum(math.comb(n, a) * math.comb(n - a, b)
               for a in range(1, k + 1) for b in range(1, k + 1)) // 2


def wilson(successes: int, trials: int) -> tuple[float, float]:
    z = 1.959963984540054
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def descendant_graph(gram: np.ndarray) -> np.ndarray:
    """Adjacency left after flipping every column against the last and removing it."""
    anchor = gram.shape[0] - 1
    signs = -np.sign(gram[anchor])
    signs[anchor] = 1.0
    flipped = gram * np.outer(signs, signs)
    adj = flipped < 0
    np.fill_diagonal(adj, False)
    return adj[:anchor, :anchor]


def clique_number(adj: np.ndarray) -> int:
    """Maximum clique size by Bron-Kerbosch with pivoting (small graphs only)."""
    nbr = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in adj]
    best = 0

    def grow(size: int, cand: int, excl: int) -> None:
        nonlocal best
        if not cand and not excl:
            best = max(best, size)
            return
        if size + bin(cand).count("1") <= best:
            return
        pivot = max(_bits(cand | excl), key=lambda u: bin(cand & nbr[u]).count("1"))
        for v in _bits(cand & ~nbr[pivot]):
            grow(size + 1, cand & nbr[v], excl & nbr[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    grow(0, (1 << len(nbr)) - 1, 0)
    return best


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def paley_adjacency(p: int) -> np.ndarray:
    squares = {(x * x) % p for x in range(1, p)}
    diff = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    return np.isin(diff, sorted(squares))


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the op's output is right
# ---------------------------------------------------------------------------


class Problems(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def close(self, got: float, want: float, what: str, tol: float = TOL) -> None:
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            self.append(f"{what}: got {got!r}, want {want!r}")


def _hollow_norm(gram, cols) -> float:
    return float(np.linalg.norm(gram[np.ix_(cols, cols)] - np.eye(len(cols)), 2))


def _certify_common(gram: np.ndarray, report, n: int, found: Problems) -> None:
    """Witness values, counts and derived bounds of any certify report."""
    delta1 = float(report["frame"]["delta1"])
    for name, sec in report.items():
        if not name.startswith("K="):
            continue
        k = int(name[2:])
        if "ric-exact" in sec:
            ric = float(sec["ric-exact"])
            found.close(_hollow_norm(gram, _ints(sec["ric-exact-witness"])), ric, f"{name} ric witness")
            found.expect(int(sec["ric-exact-count"]) == math.comb(n, k), f"{name} ric-exact-count")
            for key, value in sec.items():
                if key.startswith("power-q"):
                    q, v = int(key[7:]), float(value)
                    found.expect(ric - 1e-9 <= v <= k ** (1 / (2 * q)) * ric + 1e-9,
                              f"{name} {key} outside [ric, K^(1/2q) ric]")
        if "roc-exact" in sec:
            roc = float(sec["roc-exact"])
            wi, wj = _ints(sec["roc-witness-i"]), _ints(sec["roc-witness-j"])
            found.close(float(np.linalg.norm(gram[np.ix_(wi, wj)], 2)), roc, f"{name} roc witness")
            want = math.comb(n, k) * math.comb(n - k, k) // 2
            found.expect(int(sec["roc-count"]) == want, f"{name} roc-count")
            found.close(float(sec["ro-to-rip-2k"]), 2 * roc + delta1, f"{name} ro-to-rip-2k")
        if "fro-constant" in sec:
            fro = float(sec["fro-constant"])
            wi, wj = _ints(sec["fro-witness-i"]), _ints(sec["fro-witness-j"])
            direct = abs(float(gram[np.ix_(wi, wj)].sum())) / math.sqrt(len(wi) * len(wj))
            found.close(direct, fro, f"{name} fro witness")
            found.expect(int(sec["fro-count"]) == mixed_pair_count(n, k), f"{name} fro-count")
            if "fro-to-ro-simple" in sec:
                found.close(float(sec["fro-to-ro-simple"]), 75 * fro * math.log(k),
                         f"{name} fro-to-ro-simple")
    spark = report.get("spark")
    if spark is not None:
        cap = int(spark["cap"])
        if spark["exact"] == "false":
            found.expect(int(spark["tested"]) == sum(math.comb(n, s) for s in range(1, cap + 1)),
                      "spark tested count")
            found.expect(int(spark["lower-bound"]) == cap + 1, "spark lower-bound")
    found.expect(report["invariants"]["violations"] == "0", "certify report has violations")


def certify_etf(workdir: Path, files, ref) -> list[str]:
    p = ref["p"]
    mu = 1 / math.sqrt(p)
    frame = read_matrix(workdir / "frame.mat")
    gram = frame.T @ frame
    report = parse_report(workdir / files[0])
    found = Problems()
    found.close(float(report["frame"]["coherence"]), mu, "coherence vs Welch bound 1/sqrt(p)")
    found.close(float(report["frame"]["welch-bound"]), mu, "welch-bound")
    omega = clique_number(descendant_graph(gram))
    for name, sec in report.items():
        if name.startswith("K="):
            k = int(name[2:])
            if "gershgorin" in sec:
                found.close(float(sec["gershgorin"]), (k - 1) * mu, f"{name} gershgorin")
            if "ric-exact" in sec and k <= omega + 1:
                found.close(float(sec["ric-exact"]), (k - 1) * mu, f"{name} clique identity")
    _certify_common(gram, report, frame.shape[1], found)
    return found


def certify_generic(workdir: Path, files, ref) -> list[str]:
    frame = read_matrix(workdir / "frame.mat")
    found = Problems()
    found.expect(frame.shape == (ref["m"], ref["n"]), f"frame shape {frame.shape}")
    _certify_common(frame.T @ frame, parse_report(workdir / files[0]), ref["n"], found)
    return found


def _graph_common(report, adj: np.ndarray, found: Problems) -> None:
    clique = report["clique"]
    witness = _ints(clique["witness"])
    found.expect(len(witness) == int(clique["omega"]), "clique witness size")
    found.expect(all(adj[a, b] for a in witness for b in witness if a != b),
              "clique witness is not a clique")
    found.expect(clique["exact"] == "true", "clique search not exact")
    found.expect(report["mixing"]["all-ok"] == "true", "expander mixing not all-ok")
    found.expect(report["invariants"]["violations"] == "0", "graph report has violations")


def paley_graph(workdir: Path, files, ref) -> list[str]:
    p = ref["p"]
    report = parse_report(workdir / files[0])
    adj = paley_adjacency(p)
    found = Problems()
    found.expect(report[""].get("paley-graph") == str(p), "paley-graph order")
    rows = report["adjacency"]
    found.expect(rows.get("vertices") == str(p), "vertex count")
    found.expect(all(_ints(rows.get(str(v), "")) == list(np.flatnonzero(adj[v])) for v in range(p)),
              "adjacency differs from the quadratic-residue graph")
    found.expect(report["srg-check"]["params"] == _srg(p), "srg parameters")
    found.expect(int(report["clique"]["omega"]) < math.sqrt(p), "omega not below sqrt(p)")
    if all(v < p for v in _ints(report["clique"]["witness"])):
        _graph_common(report, adj, found)
    else:
        found.append("clique witness out of range")
    return found


def frame_graph(workdir: Path, files, ref) -> list[str]:
    p = ref["p"]
    frame = read_matrix(workdir / "frame.mat")
    gram = frame.T @ frame
    adj = descendant_graph(gram)
    report = parse_report(workdir / files[0])
    found = Problems()
    found.close(float(report["frame"]["coherence"]), 1 / math.sqrt(p), "coherence vs 1/sqrt(p)")
    found.expect(report["predicted-srg"]["params"] == _srg(p), "predicted srg parameters")
    found.expect(report["srg-check"]["params"] == _srg(p), "srg parameters")
    found.expect(report["srg-check"]["matches-predicted"] == "true", "srg does not match prediction")
    found.expect(int(report["clique"]["omega"]) == clique_number(adj), "omega")
    _graph_common(report, adj, found)
    expansion = report["trace-expansion"]
    cols = _ints(expansion["kset"])
    q = int(expansion["q"])
    hollow = gram[np.ix_(cols, cols)] - np.eye(len(cols))
    direct = float(np.trace(np.linalg.matrix_power(hollow, 2 * q)))
    found.close(float(expansion["direct"]), direct, "trace-expansion direct", 1e-9)
    found.close(float(expansion["expansion"]), direct, "trace-expansion walk sum", 1e-9)
    found.expect(expansion["ok"] == "true", "trace expansion routes disagree")
    return found


def paley_sweep(workdir: Path, files, ref) -> list[str]:
    p = ref["p"]
    frame = read_matrix(workdir / files[0])
    found = Problems()
    if frame.shape != ((p + 1) // 2, p + 1):
        return [f"paley frame shape {frame.shape}"]
    gram = np.abs(frame.conj().T @ frame)
    np.fill_diagonal(gram, 0.0)
    found.close(float(gram.max()), 1 / math.sqrt(p), "coherence vs 1/sqrt(p)")
    report = parse_report(workdir / files[1])
    found.expect(report["srg-check"]["params"] == _srg(p), "srg parameters")
    found.expect(report["srg-check"]["matches-predicted"] == "true", "srg does not match prediction")
    found.expect(report["invariants"]["violations"] == "0", "graph report has violations")
    return found


def mc_trials(workdir: Path, files, ref) -> list[str]:
    report = parse_report(workdir / files[0])
    trials, delta, k, n = ref["trials"], ref["delta"], ref["k"], ref["n"]
    q = ref.get("q")
    head = report[""]
    found = Problems()
    found.expect((int(head["trials"]), float(head["delta"]), int(head["k"]), int(head["n"]))
              == (trials, delta, k, n), "sweep header")
    if q is None:
        thresholds = {"fro-constant": 0.99 * delta / (2 * 75 * math.log(k)), "delta1": 0.01 * delta}
        names = {"fro-constant": "threshold-theta_hat", "delta1": "threshold-delta1"}
    else:
        thresholds = {"power": delta}
        names = {"power": "threshold-delta"}
    freqs = []
    for name, sec in report.items():
        if not name.startswith("m="):
            continue
        m, succ = int(name[2:]), int(sec["successes"])
        found.expect(int(sec["trials"]) == trials and 0 <= succ <= trials, f"{name} counts")
        found.expect(float(sec["frequency"]) == succ / trials, f"{name} frequency")
        freqs.append(sec["frequency"])
        lo, hi = wilson(succ, trials)
        found.close(float(sec["ci-low"]), lo, f"{name} ci-low")
        found.close(float(sec["ci-high"]), hi, f"{name} ci-high")
        found.expect(int(sec["failures"]) >= trials - succ, f"{name} fewer failures than misses")
        for reason, key in names.items():
            found.close(float(sec[key]), thresholds[reason], f"{name} {key}")
        for key, value in sec.items():
            if key.startswith("failure-"):
                fields = dict(tok.partition("=")[::2] for tok in value.split(" ")[:4])
                found.expect(float(fields["value"]) > thresholds[fields["reason"]],
                          f"{name} {key} does not exceed its threshold")
        if q is not None:
            needed = 81 / delta**2 * k ** (1 + 1 / q) * math.log(math.e * n / k)
            found.expect(sec["meets-measurement-bound"] == ("true" if m >= needed else "false"),
                      f"{name} meets-measurement-bound")
    found.expect(report["sweep"]["frequencies"].split(",") == freqs, "sweep frequencies")
    found.expect(report["invariants"]["violations"] == "0", "mc report has violations")
    return found


def mc_tail(workdir: Path, files, ref) -> list[str]:
    report = parse_report(workdir / files[0])
    trials = ref["trials"]
    found = Problems()
    found.expect(int(report[""]["trials"]) == trials, "trials")
    for name, sec in report.items():
        if not name.startswith("m="):
            continue
        m = int(name[2:])
        last = trials
        for key, value in sec.items():
            theta = float(key[6:])
            fields = dict(tok.partition("=")[::2] for tok in value.split(" "))
            count = int(fields["count"])
            found.expect(count <= last, f"{name} {key} tail count increases")
            last = count
            if theta == 0.0:
                found.expect(count == trials, f"{name} {key} must count every trial")
            found.expect(float(fields["empirical"]) == count / trials, f"{name} {key} empirical")
            found.close(float(fields["bound"]), 2 * math.exp(-m * theta**2 / 4), f"{name} {key} bound")
            found.expect(fields["ok"] == "True" and fields["symmetric"] == "True", f"{name} {key} flags")
    found.expect(report["invariants"]["violations"] == "0", "mc report has violations")
    return found


CHECKS = {f.__name__: f for f in (
    certify_etf, certify_generic, paley_graph, frame_graph, paley_sweep, mc_trials, mc_tail,
)}


def judge(op, steps, workdir: Path, ref: dict) -> tuple[str, list[str]]:
    """Status of one op from its steps' exit codes and its output check."""
    last = steps[-1]
    if last["exit"] != 0:
        if op.known_defect is not None and last["exit"] == op.known_defect[0] \
                and last["stderr"].startswith(op.known_defect[1]):
            return "known-defect", []
        return "failed", [f"exit {last['exit']}: {last['stderr']}"]
    try:
        problems = list(CHECKS[op.check](workdir, op.outputs, ref))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return ("failed" if problems else "ok"), problems
