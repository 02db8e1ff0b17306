"""ripcert benchmark: wall time, set-up time, memory and correctness per workload.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workload runs happen in fresh child processes (``child.py``) that build the
workload's inputs from the seed and run its CLI ops one after another.

With ``--trace 0`` a run starts ``SETUP_PROBES`` children that only set up
(they sample ``setup_s``), then one child that warms up and repeats the
ops for the rest of ``--seconds``, each op at RIPCERT_WORKERS=1 and 2 in
turn. ``wall_s`` and ``wall_w2_s`` are the medians over the repetitions
of the summed op times at 1 and at 2 workers. Every time is scaled to a
fixed machine speed: the child times a reference kernel
(``child.reference_kernel``) before an op execution whenever the last one
ended more than half a second earlier, and once at the end. Each
execution's time is multiplied by ``REFERENCE_S`` over the mean of the
nearest kernel times on either side of it, taken for its worker count
(``reference_time``). On a shared machine the speed of a CPU drifts by
20-40% within seconds to minutes, and the scaled times follow the program
instead of that drift. The unscaled medians are kept in the record and
printed beside the scaled ones.

With ``--trace 1`` each round is an untraced 1-worker child, a traced
1-worker child and a traced 2-worker child, each running every op once,
and the per-layer metrics are medians over the traced children.

Every op's output is checked against an independent reference
(``checks.py``), and its report-body digest must equal the first
execution's, so bodies stay byte-identical across worker counts and
repeats. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, every child, every op's exit code, digests and problems) is
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: traced rounds run even when one round outlasts --seconds, so every median has two samples
MIN_ROUNDS = 2
#: set-up-only children per untraced run; with the measuring child they give setup_s
SETUP_PROBES = 4
#: how much longer than its share of --seconds a child may run
CHILD_TIMEOUT_S = 150
#: traced self times must account for the traced wall time within this share
ACCOUNTING_TOL = 0.1
#: reference-kernel times, by worker count (see ``reference_time``), that
#: define the fixed machine speed: their medians on the 2-vCPU Intel Xeon the
#: benchmark was tuned on, so scaled and unscaled times agree there on average
REFERENCE_S = {1: 0.075, 2: 0.11}

END_TO_END_UNITS = {
    "wall_s": "s", "wall_w2_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1",
}


def reference_time(sample: list[float], workers: int) -> float:
    """The reference time that matches an execution at ``workers``.

    ``sample`` is the in-thread and the pooled time of one kernel run. At 1
    worker that is the in-thread time. A 2-worker execution both computes
    and hands work between threads, so it takes the geometric mean of the
    in-thread time and the whole kernel's time, whose pooled part follows how
    fast the machine wakes threads.
    """
    in_thread, pooled = sample
    return in_thread if workers == 1 else math.sqrt(in_thread * (in_thread + pooled))


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s") or name.endswith("per_kernel_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "certification.gather_bytes":
        return "B-computed"
    if name == "fileio.bytes_written":
        return "B"
    if name == "trace.overhead_ratio":
        return "1"
    return "count"


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def run_child(wl, seed: int, workers: int, traced: bool, workdir: Path,
              seconds: float | None = None) -> dict:
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "RIPCERT_WORKERS": str(workers),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", wl.name,
           "--seed", str(seed), "--trace", str(int(traced))]
    if seconds is not None:
        cmd += ["--seconds", f"{seconds:.3f}"]
    timeout = CHILD_TIMEOUT_S + (seconds or 0.0)
    with open(workdir / "child.stderr", "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{wl.name}: child ran longer than {timeout:.0f}s") from None
        finally:
            # on every way out, including SIGTERM (see main), no child outlives the parent
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
    if code != 0:
        raise BenchError(f"{wl.name}: child exited {code}: " + " | ".join(tail))
    with open(workdir / "result.json", encoding="ascii") as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_end_monotonic"] - spawned
    result["setup_scale"] = REFERENCE_S[1] / reference_time(result["setup_reference_s"], 1)
    if "reference_s" in result:
        result["scale"] = REFERENCE_S[workers] / statistics.mean(
            reference_time(r, workers) for r in result["reference_s"])
    result["workers"] = workers
    result["traced"] = traced
    return result


def judge_child(wl, result: dict, workdir: Path, first_digests: dict) -> list[dict]:
    """Check every op of one child; a digest differing from the first child's fails the op."""
    records = []
    for op, done in zip(wl.ops, result["ops"]):
        status, problems = checks.judge(op, done["steps"], workdir, op.ref)
        digest = checks.digests(workdir, op.outputs)
        expected = first_digests.setdefault(op.name, digest)
        if digest != expected:
            status = "failed"
            problems.append("report body differs from the first run's: "
                            f"{sorted(k for k in digest if digest[k] != expected.get(k))}")
        last = done["steps"][-1]
        records.append({"op": op.name, "status": status, "exit": last["exit"],
                        "stderr": last["stderr"], "seconds": sum(s["seconds"] for s in done["steps"]),
                        "digests": digest, "problems": problems})
    return records


def judge_repeated(wl, result: dict, workdir: Path) -> list[dict]:
    """Check every execution of a repeating child.

    The outputs on disk are those of the last execution of each op at each
    worker count, and they get the full check. Every other execution must
    have ended the same way and left the same report-body digests as the
    first execution of the op, so it would pass or fail that check alike.
    """
    last = {(e["op"], e["workers"]): e for e in result["executions"]}
    verdicts = {key: checks.judge(wl.ops[key[0]], e["steps"], workdir / f"w{key[1]}",
                                  wl.ops[key[0]].ref)
                for key, e in last.items()}
    first_digests: dict = {}
    records = []
    for e in result["executions"]:
        op = wl.ops[e["op"]]
        status, problems = verdicts[(e["op"], e["workers"])]
        problems = list(problems)
        end = e["steps"][-1]
        judged = last[(e["op"], e["workers"])]["steps"][-1]
        if (end["exit"], end["stderr"]) != (judged["exit"], judged["stderr"]):
            status = "failed"
            problems.append(f"ended with exit {end['exit']} ({end['stderr']!r}), the checked "
                            f"execution with exit {judged['exit']} ({judged['stderr']!r})")
        expected = first_digests.setdefault(op.name, e["digests"])
        if e["digests"] != expected:
            status = "failed"
            problems.append("report body differs from the first execution's: "
                            f"{sorted(k for k in e['digests'] if e['digests'][k] != expected.get(k))}")
        records.append({"op": op.name, "workers": e["workers"], "rep": e["rep"], "status": status,
                        "exit": end["exit"], "stderr": end["stderr"], "seconds": e["seconds"],
                        "problems": problems})
    return records


def self_check(wl, workdir: Path) -> None:
    """Feed the first op a deliberately wrong reference: its check must fail it."""
    op = wl.ops[0]
    steps = [{"argv": list(op.steps[-1]), "exit": 0, "stderr": ""}]
    status, _ = checks.judge(op, steps, workdir, {**op.ref, **op.wrong})
    if status != "failed":
        raise BenchError(f"{wl.name}: the check of {op.name} accepts a wrong reference")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workload(name, seed)
    outdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    env = environment(seed)
    run = run_traced if trace else run_repeated
    return summarize(wl, env, run(wl, seed, seconds, outdir), trace, outdir)


def run_repeated(wl, seed: int, seconds: float, outdir: Path) -> list[dict]:
    """Set-up probes, then one child repeating the ops for the rest of ``seconds``."""
    start = time.monotonic()
    children: list[dict] = []
    for i in range(SETUP_PROBES):
        workdir = outdir / f"{i:02d}-setup"
        result = run_child(wl, seed, 1, False, workdir, seconds=0)
        result["kind"] = "setup"
        children.append(result)
        shutil.rmtree(workdir)
    setup = statistics.median(c["setup_s"] for c in children)
    budget = max(0.0, seconds - (time.monotonic() - start) - setup)
    workdir = outdir / f"{SETUP_PROBES:02d}-ops"
    result = run_child(wl, seed, 1, False, workdir, seconds=budget)
    result["kind"] = "ops"
    result["ops"] = judge_repeated(wl, result, workdir)
    self_check(wl, workdir / "w1")
    children.append(result)
    shutil.rmtree(workdir)
    return children


def run_traced(wl, seed: int, seconds: float, outdir: Path) -> list[dict]:
    """Rounds of an untraced, a traced 1-worker and a traced 2-worker child."""
    plan = [("w1", 1, False), ("t1", 1, True), ("t2", 2, True)]
    start = time.monotonic()
    children: list[dict] = []
    first_digests: dict = {}
    round_s: list[float] = []
    while True:
        began = time.monotonic()
        # alternate which child goes first, so drift hits them alike
        order = plan if len(round_s) % 2 == 0 else plan[::-1]
        for kind, workers, traced in order:
            workdir = outdir / f"{len(children):02d}-{kind}"
            result = run_child(wl, seed, workers, traced, workdir)
            result["kind"] = kind
            result["ops"] = judge_child(wl, result, workdir, first_digests)
            if not children:
                self_check(wl, workdir)
            if traced:
                # the last traced child of each kind keeps its spans on disk
                shutil.copy(workdir / "result.json", f"{outdir}-{kind}-spans.json")
                tree = spans.SpanTree(result.pop("trace"))
                window = tuple(result["window"])
                result["tree"] = tree
                result["accounted"] = spans.accounted_share(tree, window)
            children.append(result)
            shutil.rmtree(workdir)
        round_s.append(time.monotonic() - began)
        if len(round_s) >= MIN_ROUNDS and \
                time.monotonic() - start + statistics.median(round_s) > seconds:
            break
    return children


def execution_scales(result: dict) -> list[float]:
    """For each execution of a repeating child, ``REFERENCE_S`` over the mean
    of the nearest reference-kernel times before and after it, both taken for
    the execution's worker count."""
    ex = result["executions"]
    refs = [e["reference_s"] for e in ex] + [result["final_reference_s"]]
    before, latest = [], None
    for ref in refs[:-1]:
        latest = ref if ref is not None else latest
        before.append(latest)
    after, nearest = [], None
    for ref in reversed(refs[1:]):
        nearest = ref if ref is not None else nearest
        after.append(nearest)
    return [REFERENCE_S[e["workers"]] * 2
            / (reference_time(b, e["workers"]) + reference_time(a, e["workers"]))
            for e, b, a in zip(ex, before, reversed(after))]


def repetition_walls(result: dict, workers: int, scale: bool = True) -> list[float]:
    """Summed op times of each timed repetition at ``workers``, scaled by default."""
    walls: dict[int, float] = {}
    for e, factor in zip(result["executions"], execution_scales(result)):
        if e["rep"] >= 0 and e["workers"] == workers:
            walls[e["rep"]] = walls.get(e["rep"], 0.0) + e["seconds"] * (factor if scale else 1.0)
    return list(walls.values())


def scaled(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Times multiplied and rates divided by a child's speed scale."""
    factor = {"s": scale, "1/s": 1 / scale}
    return {k: v * factor.get(unit_of(k), 1.0) for k, v in metrics.items()}


def summarize(wl, env: dict, children: list[dict], trace: bool, outdir: Path) -> dict:
    def of(kind, key, scale=True):
        return [c[key] * (c["scale"] if scale else 1.0) for c in children if c["kind"] == kind]

    records = [r for c in children for r in c.get("ops", ())]
    attempted = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    ok = sum(r["status"] == "ok" for r in records)
    problems = []
    samples: dict[str, list[float]] = {}
    if trace:
        traced = [c for c in children if c["traced"]]
        for c in traced:
            if abs(c["accounted"] - 1.0) > ACCOUNTING_TOL:
                problems.append(f"{c['kind']}: layer self times cover {c['accounted']:.3f} "
                                "of the traced wall time")
        per_child = [scaled(spans.layer_metrics(c["tree"]), c["scale"])
                     for c in traced if c["kind"] == "t1"]
        for key in per_child[0]:
            samples[key] = [m[key] for m in per_child]
        for c in traced:
            if c["kind"] == "t2":
                for key, value in scaled(spans.wait_metrics(c["tree"]), c["scale"]).items():
                    samples.setdefault(key, []).append(value)
        overhead = statistics.median(of("t1", "wall_s")) / statistics.median(of("w1", "wall_s")) - 1
        samples["trace.overhead_ratio"] = [overhead]
        unscaled = [
            ("wall_s", of("w1", "wall_s", scale=False)),
            ("reference_s", [statistics.mean(reference_time(r, c["workers"]) for r in c["reference_s"])
                             for c in children]),
        ]
    else:
        ops = children[-1]
        samples = {
            "wall_s": repetition_walls(ops, 1),
            "wall_w2_s": repetition_walls(ops, 2),
            "setup_s": [c["setup_s"] * c["setup_scale"] for c in children],
            "peak_rss_mb": [ops["peak_rss_mb"]],
            "ok_ratio": [ok / attempted],
        }
        unscaled = [
            ("wall_s", repetition_walls(ops, 1, scale=False)),
            ("wall_w2_s", repetition_walls(ops, 2, scale=False)),
            ("setup_s", [c["setup_s"] for c in children]),
            ("reference_s", [reference_time(e["reference_s"], 1) for e in ops["executions"]
                             if e["reference_s"] is not None]),
            ("reference_w2_s", [reference_time(e["reference_s"], 2) for e in ops["executions"]
                                if e["reference_s"] is not None]),
        ]
    stats = {k: quartiles(v) + (len(v),) for k, v in samples.items()}
    unscaled = {k: quartiles(v) for k, v in unscaled if v}
    summary = {
        "workload": wl.name,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "known_defects": sorted({(r["op"], r["exit"], r["stderr"]) for r in records
                                 if r["status"] == "known-defect"}),
        "problems": problems,
        "metrics": {k: {"value": s[1], "unit": unit_of(k), "q1": s[0], "q3": s[2], "n": s[3]}
                    for k, s in stats.items()},
        "unscaled": {k: {"value": s[1], "q1": s[0], "q3": s[2]} for k, s in unscaled.items()},
        "environment": {**env, "child": children[-1]["env"],
                        "workers": sorted({r.get("workers", c["workers"]) for c in children
                                           for r in c.get("ops", ())})},
        "children": [{k: v for k, v in c.items() if k not in ("tree", "env", "setup_end_monotonic")}
                     for c in children],
    }
    if trace:
        summary["layer_table"] = []
        for kind in ("t1", "t2"):
            last = next(c for c in reversed(children) if c["kind"] == kind)
            summary["layer_table"] += [f"traced child at {last['workers']} worker(s):"] + \
                spans.format_table(last["tree"], tuple(last["window"]))
    with open(outdir.with_suffix(".json"), "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=1)
    shutil.rmtree(outdir, ignore_errors=True)
    return summary


def print_summary(s: dict) -> None:
    env = s["environment"]
    print(f"== {s['workload']}")
    print(f"   nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['child']['numpy']} blas={env['child']['blas']} "
          f"workers={env['workers']} seed={env['seed']} loadavg={env['loadavg_start']}")
    for line in s.get("layer_table", ()):
        print("   " + line)
    print(f"   {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for name, m in s["metrics"].items():
        print(f"   {name:<36} {m['value']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g} "
              f"{m['n']:3d}  {m['unit']}")
    for name, m in s["unscaled"].items():
        print(f"   {name + ' (unscaled)':<36} {m['value']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g}"
              "       s")
    print(f"   ops attempted={s['attempted']} failed={s['failed']} "
          f"known-defect={sum(1 for c in s['children'] for r in c.get('ops', ()) if r['status'] == 'known-defect')}")
    for op, code, line in s["known_defects"]:
        print(f"   known defect {op}: exit {code}: {line}")
    for c in s["children"]:
        for r in c.get("ops", ()):
            if r["status"] == "failed":
                print(f"   FAILED {c['kind']} {r['op']}: {'; '.join(r['problems'])}")
    for p in s["problems"]:
        print(f"   FAILED {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ripcert" / "__init__.py").is_file():
        print(f"error: no ripcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print_summary(s)
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}/{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
                    for s in summaries for k, m in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
