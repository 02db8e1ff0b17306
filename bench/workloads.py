"""The benchmark's workloads: the inputs a child builds and the CLI ops it runs.

Every random input comes from the workload seed. An op is one or more
``ripcert`` command lines run in order; it stops at the first nonzero
exit. ``check`` names the function in ``checks`` that verifies the op's
outputs against references the benchmark computes itself, ``ref`` holds
that reference's parameters, and ``wrong`` overrides them with values
that must make the check fail (the self-check that the checks bite).
``known_defect`` is the exit code and the start of the first stderr line
with which the op fails in ripcert 0.1.0 because of a known defect;
such an op counts against ``ok_ratio`` but not as a failed op.

Why each workload was chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: certify-etf raises --budget above the 7,567,260 flat-orthogonality pairs
ETF_BUDGET = "10000000"
PALEY_SWEEP = (13, 17, 29, 37, 41, 53, 61, 101)
#: sweep primes whose `graph` step fails in ripcert 0.1.0: `realify` is
#: inaccurate at 37 (unit-norm deviation 5.1e-12 > 1e-12 in verify_etf) and
#: its Cholesky residual check raises from 41 up
REALIFY_DEFECT = {
    37: (1, "error: frame fails the tight-frame axioms"),
    **{p: (1, "error: cholesky residual") for p in (41, 53, 61, 101)},
}
#: `mc tail` tests every one of its 22 rows for symmetry at three standard
#: errors, with no allowance for the number of rows and a standard error that
#: omits the covariance of the two tail counts, so it flags 4 of the seeds
#: 0-59 although the distribution is exactly symmetric. Drawn from the
#: workload seed it would fail runs at random; this fixed seed (z = 3.7 at
#: m=16) keeps the false alarm visible in every run instead.
TAIL_SEED = "14"
TAIL_DEFECT = (2, "invariant violation: m=16: tail asymmetry beyond three standard errors")


@dataclass(frozen=True)
class Op:
    name: str
    steps: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    check: str
    ref: dict = field(default_factory=dict)
    wrong: dict = field(default_factory=dict)
    known_defect: tuple[int, str] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # what the child builds before the first op: "paley29", "gaussian" or ""
    ops: tuple[Op, ...]


def _seeded_signs(seed: int, n: int):
    """Columns to negate: a flipping-equivalent frame, so every constant is unchanged."""
    return [int(j) for j in np.flatnonzero(np.random.default_rng(seed).integers(0, 2, n))]


def build_inputs(kind: str, seed: int, rc) -> None:
    """Build and write a workload's input matrices into the current directory."""
    if kind == "paley29":
        frame = rc.constructions.realify(rc.constructions.paley_etf(29))
        frame = rc.constructions.negate_columns(frame, _seeded_signs(seed, frame.n))
        rc.fileio.write_matrix("frame.mat", frame)
    elif kind == "gaussian":
        rc.fileio.write_matrix("frame.mat", rc.constructions.gaussian_matrix(11, 22, seed))


def _certify_etf(seed: int) -> tuple[Op, ...]:
    argv = ("certify", "frame.mat", "--gershgorin", "--exact-ric", "5", "--power", "5", "2,8",
            "--roc", "2", "--fro", "3", "--spark", "5", "--bounds", "--budget", ETF_BUDGET,
            "-o", "certify.txt")
    return (Op("certify", (argv,), ("certify.txt",), "certify_etf", {"p": 29}, {"p": 31}),)


def _certify_generic(seed: int) -> tuple[Op, ...]:
    argv = ("certify", "frame.mat", "--exact-ric", "3", "--exact-ric", "6", "--roc", "3",
            "--fro", "2", "--bounds", "-o", "certify.txt")
    return (Op("certify", (argv,), ("certify.txt",), "certify_generic", {"m": 11, "n": 22},
               {"n": 23}),)


def _mc_sweep(seed: int) -> tuple[Op, ...]:
    s = str(seed)
    # 75 trials per row count keep one pass over the ops near 2 s, so a 30 s
    # run holds several repetitions at each worker count
    fro = ("mc", "fro", "--m", "8,16,32,64", "--n", "24", "--k", "2", "--delta", "0.5",
           "--trials", "75", "--seed", s, "-o", "fro.txt")
    power = ("mc", "power", "--m", "8,32,128,512", "--n", "20", "--k", "3", "--q", "2",
             "--delta", "0.5", "--trials", "75", "--seed", s, "-o", "power.txt")
    tail = ("mc", "tail", "--m", "16,64", "--k1", "2", "--k2", "2", "--trials", "200000",
            "--seed", TAIL_SEED, "-o", "tail.txt")
    trial_ref = {"trials": 75, "delta": 0.5, "k": 2, "n": 24}
    return (
        Op("mc-fro", (fro,), ("fro.txt",), "mc_trials", trial_ref, {"delta": 0.25}),
        Op("mc-power", (power,), ("power.txt",), "mc_trials",
           {**trial_ref, "k": 3, "n": 20, "q": 2}, {"trials": 76}),
        Op("mc-tail", (tail,), ("tail.txt",), "mc_tail", {"trials": 200000}, {"trials": 200001},
           TAIL_DEFECT),
    )


def _graph_paley(seed: int) -> tuple[Op, ...]:
    s = str(seed)
    ops = [
        Op("paley-graph-229",
           (("graph", "--paley-graph", "229", "--srg-check", "--clique", "--mixing", "200",
             "--seed", s, "-o", "paley229.txt"),),
           ("paley229.txt",), "paley_graph", {"p": 229}, {"p": 233}),
        Op("frame-29",
           (("graph", "frame.mat", "--srg-check", "--clique", "--mixing", "200", "--seed", s,
             "--trace-expansion", "0,1,2,3,4,5,6", "3", "-o", "frame29.txt"),),
           ("frame29.txt",), "frame_graph", {"p": 29}, {"p": 37}),
    ]
    for p in PALEY_SWEEP:
        ops.append(Op(
            f"sweep-{p}",
            (("construct", "paley", "--p", str(p), "-o", f"paley{p}.mat"),
             ("graph", f"paley{p}.mat", "--srg-check", "-o", f"paley{p}.txt")),
            (f"paley{p}.mat", f"paley{p}.txt"), "paley_sweep", {"p": p}, {"p": p + 4},
            REALIFY_DEFECT.get(p),
        ))
    return tuple(ops)


WORKLOADS = {
    "certify-etf": ("paley29", _certify_etf),
    "certify-generic": ("gaussian", _certify_generic),
    "mc-sweep": ("", _mc_sweep),
    "graph-paley": ("paley29", _graph_paley),
}


def workload(name: str, seed: int) -> Workload:
    inputs, make_ops = WORKLOADS[name]
    return Workload(name, inputs, make_ops(seed))
