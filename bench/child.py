"""One workload run in a fresh process: build the inputs, then run the ops.

``run.py`` starts this script with its own scratch directory as the
working directory, ``src`` on ``PYTHONPATH``, ``RIPCERT_WORKERS`` set and
BLAS pinned to one thread. The ops go through ``ripcert.cli.main`` one at
a time, each after the previous one returned (a closed loop with one
client). The child times ``reference_kernel`` right after set-up and
around the ops, so ``run.py`` can scale its times to a fixed machine
speed.

- ``--seconds S``: after a warm-up pass, repeat the ops for about ``S``
  seconds, each op at 1 and at 2 workers in turn (see ``repeated``).
  ``--seconds 0`` only sets up, so ``run.py`` can sample set-up time.
- without ``--seconds``: run every op once at the environment's worker
  count. With ``--trace 1`` every public ``ripcert`` function is wrapped
  first (see ``spans.py``); otherwise the package runs unmodified.

The outcome, timestamps and, when traced, the spans are written to
``result.json`` when the run ends.

    python3 bench/child.py --workload NAME --seed N --trace 0|1 [--seconds S]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

#: repetitions run even when one outlasts the budget, so medians have samples
MIN_REPS = 3
#: a reference kernel runs before an op execution if the last one ended longer ago
REFERENCE_EVERY_S = 0.5


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_kernel(np) -> tuple[float, float]:
    """Seconds for fixed work independent of ripcert, interpreted integer
    arithmetic and batched 5x5 eigvalsh: once in this thread, then once as
    small tasks on short-lived 2-thread pools. The first time measures the
    current speed of a CPU, the second also how fast the machine wakes and
    joins threads."""
    from concurrent.futures import ThreadPoolExecutor

    mats = np.random.default_rng(0).normal(size=(2000, 5, 5))
    mats = mats + mats.transpose(0, 2, 1)

    def work(loops: int, batch) -> None:
        x = 0
        for i in range(loops):
            x = (x * 31 + i) & 0xFFFFFFFF
        np.linalg.eigvalsh(batch)

    start = time.perf_counter()
    for _ in range(10):
        work(15_000, mats)
    middle = time.perf_counter()
    for _ in range(20):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: work(3_750, mats[:500]), range(2)))
    return middle - start, time.perf_counter() - middle


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run_op(ripcert, op) -> list[dict]:
    """Run one op's command lines in order, stopping at the first nonzero exit."""
    steps = []
    for argv in op.steps:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ripcert.cli.main(list(argv))
        seconds = time.perf_counter() - start
        stderr = err.getvalue().splitlines()
        steps.append({"argv": list(argv), "exit": code, "seconds": seconds,
                      "stderr": stderr[0] if stderr else ""})
        if code != 0:
            break
    return steps


def single_pass(ripcert, np, wl, reference_s: float) -> dict:
    """Every op once, at the worker count of the environment; ``reference_s``
    is the kernel time taken right before."""
    reference_s = [reference_s]
    window_start = time.perf_counter()
    ops = [{"name": op.name, "steps": run_op(ripcert, op)} for op in wl.ops]
    window_end = time.perf_counter()
    reference_s.append(reference_kernel(np))
    return {
        "reference_s": reference_s,
        "wall_s": window_end - window_start,
        "window": [window_start, window_end],
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops,
    }


def repeated(ripcert, np, wl, budget_s: float) -> dict:
    """Warm up with every op at 1 worker, then repeat the ops for ``budget_s``.

    Each repetition runs every op at 1 and at 2 workers, one right after the
    other, in an order that alternates from op to op and from repetition to
    repetition, so drift in machine speed hits both worker counts alike.
    ``reference_kernel`` runs before an execution when it last ended more than
    ``REFERENCE_EVERY_S`` ago, and once at the end, so each execution can be
    scaled by the nearest kernel times on either side of it.
    Outputs go to ``w1/`` and ``w2/``; every execution's report-body digests
    are recorded. A repetition starts only if one more is expected to end
    within the budget, but at least ``MIN_REPS`` run.
    """
    from checks import digests

    deadline = time.monotonic() + budget_s
    base = Path.cwd()
    executions = []
    last_reference = -math.inf

    def execute(index: int, workers: int, rep: int) -> None:
        nonlocal last_reference
        op = wl.ops[index]
        os.environ["RIPCERT_WORKERS"] = str(workers)
        os.chdir(base / f"w{workers}")
        try:
            ref = None
            if time.monotonic() - last_reference > REFERENCE_EVERY_S:
                ref = reference_kernel(np)
                last_reference = time.monotonic()
            steps = run_op(ripcert, op)
        finally:
            os.chdir(base)
        executions.append({"op": index, "workers": workers, "rep": rep, "reference_s": ref,
                           "seconds": sum(s["seconds"] for s in steps), "steps": steps,
                           "digests": digests(base / f"w{workers}", op.outputs)})

    for index in range(len(wl.ops)):
        execute(index, 1, -1)
    rss = peak_rss_mb()
    rep_s: list[float] = []
    rep = 0
    while rep < MIN_REPS or time.monotonic() + max(rep_s) <= deadline:
        began = time.monotonic()
        for index in range(len(wl.ops)):
            for workers in ((1, 2) if (rep + index) % 2 == 0 else (2, 1)):
                execute(index, workers, rep)
        rep_s.append(time.monotonic() - began)
        rep += 1
    return {"executions": executions, "final_reference_s": reference_kernel(np),
            "peak_rss_mb": rss}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float,
                        help="repeat the ops for this long at 1 and 2 workers "
                             "(0: set up only); without it run every op once")
    args = parser.parse_args()

    import numpy as np

    import ripcert
    import ripcert.cli
    from workloads import build_inputs, workload

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(ripcert)
    wl = workload(args.workload, args.seed)
    if args.seconds is not None:
        Path("w1").mkdir()
        Path("w2").mkdir()
        os.chdir("w1")
        build_inputs(wl.inputs, args.seed, ripcert)
        os.chdir("..")
        for made in Path("w1").iterdir():
            shutil.copy(made, "w2")
    else:
        build_inputs(wl.inputs, args.seed, ripcert)
    setup_end = time.monotonic()
    setup_reference_s = reference_kernel(np)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "ripcert": ripcert.__version__,
        "RIPCERT_WORKERS": "1,2" if args.seconds else os.environ.get("RIPCERT_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }

    if args.seconds is None:
        result = single_pass(ripcert, np, wl, setup_reference_s)
    elif args.seconds > 0:
        result = repeated(ripcert, np, wl, args.seconds)
    else:
        result = {}
    result["setup_end_monotonic"] = setup_end
    result["setup_reference_s"] = setup_reference_s
    result["env"] = env
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open("result.json", "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
