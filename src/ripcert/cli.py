"""Command-line front end: construct, certify, graph and mc subcommands.

Exit codes form a stable contract: 0 success, 1 invalid usage or
parameters, 2 a computed invariant check failed (the report carries the
witness), 3 an enumeration budget was exceeded, 4 the input is
infeasible for the requested operation. All randomness flows from
explicit --seed flags; worker parallelism is controlled solely by the
RIPCERT_WORKERS environment variable and never changes any output.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace

from . import __version__
from .certification import (
    DEFAULT_BUDGET,
    certify_frame,
    verify_etf,
    welch_bound,
)
from .constructions import (
    _generator,
    all_pairs_steiner,
    bernoulli_matrix,
    gaussian_matrix,
    hadamard,
    paley_etf,
    realify,
    steiner_etf,
    steiner_triple,
)
from .errors import (
    EnumerationBudgetError,
    InfeasibleInputError,
    InvalidParameterError,
    RipcertError,
)
from .fileio import (
    ReportWriter,
    read_graph,
    read_matrix,
    read_steiner,
    sha256_file,
    write_graph,
    write_matrix,
    write_steiner,
)
from .graphs import (
    clique_number,
    descendant_graph,
    expander_mixing_check,
    paley_clique_number,
    paley_graph,
    predicted_srg,
    seidel_from_gram,
    seidel_trace_expansion,
    srg_check,
)
from .montecarlo import (
    TrialConfig,
    column_sum_tail,
    run_fro_trials,
    run_power_trials,
    sidak_z,
)
from .subsets import worker_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_BUDGET = 3
EXIT_INFEASIBLE = 4
#: exceptions with their own exit code; every other reported error is exit 1
_ERROR_EXITS = {EnumerationBudgetError: EXIT_BUDGET, InfeasibleInputError: EXIT_INFEASIBLE}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage failures onto exit 1
        raise _UsageError(message)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"expected an integer, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _finish(writer: ReportWriter, output: str, violations: list[str], summary=()) -> int:
    """Close a report: invariants section, write, stdout summary, stderr violations."""
    writer.section("invariants")
    writer.kv("violations", len(violations))
    for i, v in enumerate(violations):
        writer.kv(f"violation-{i}", v)
    writer.write(output)
    print(f"wrote {output}")
    for line in summary:
        print(line)
    for v in violations:
        print(f"invariant violation: {v}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ripcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a matrix and write it to a file")
    con_sub = con.add_subparsers(dest="family", required=True)
    steiner = con_sub.add_parser("steiner", help="block-design equiangular tight frame")
    steiner.add_argument("--v", type=int, help="number of design points")
    steiner.add_argument("--k", type=int, help="block size (2 or 3 built in)")
    steiner.add_argument("--design", help="read a (2,k,v) design from a block-list file")
    steiner.add_argument(
        "--hadamard",
        choices=("auto", "sylvester", "dft"),
        default="auto",
        help="hadamard kind; auto picks sylvester for power-of-two sizes",
    )
    steiner.add_argument("--design-out", help="also save the block list to this file")
    steiner.add_argument("-o", "--output", required=True)
    paley = con_sub.add_parser("paley", help="quadratic-residue equiangular tight frame")
    paley.add_argument("--p", type=int, required=True)
    paley.add_argument(
        "--allow-3mod4",
        action="store_true",
        help="permit p = 3 (mod 4), which yields a complex Gram matrix",
    )
    paley.add_argument("-o", "--output", required=True)
    for family in ("gaussian", "bernoulli"):
        rnd = con_sub.add_parser(family, help=f"seeded {family} random frame")
        rnd.add_argument("--m", type=int, required=True)
        rnd.add_argument("--n", type=int, required=True)
        rnd.add_argument("--seed", type=int, required=True)
        rnd.add_argument("-o", "--output", required=True)

    cert = sub.add_parser("certify", help="compute isometry constants and bounds")
    cert.add_argument("input")
    cert.add_argument("--gershgorin", action="store_true", help="disc bound at every requested K")
    cert.add_argument("--exact-ric", type=int, action="append", metavar="K")
    cert.add_argument("--power", nargs=2, action="append", metavar=("K", "QLIST"))
    cert.add_argument("--roc", type=int, action="append", metavar="K")
    cert.add_argument("--fro", type=int, action="append", metavar="K")
    cert.add_argument("--spark", type=int, metavar="CAP")
    cert.add_argument("--bounds", action="store_true", help="derive the bound chains")
    cert.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    cert.add_argument("-o", "--output", required=True)

    gr = sub.add_parser("graph", help="graph-side analysis of a real frame or a paley graph")
    gr.add_argument("input", nargs="?", help="matrix file (omit with --paley-graph/--graph-in)")
    gr.add_argument("--paley-graph", type=int, metavar="P")
    gr.add_argument("--graph-in", metavar="FILE", help="analyze an adjacency-list graph file")
    gr.add_argument("--graph-out", metavar="FILE", help="save the analyzed graph")
    gr.add_argument("--canonicalize", type=int, metavar="ANCHOR")
    gr.add_argument("--seidel", action="store_true", help="emit the Gram sign matrix")
    gr.add_argument("--srg-check", action="store_true")
    gr.add_argument("--predicted-srg", action="store_true")
    gr.add_argument("--clique", action="store_true")
    gr.add_argument("--mixing", type=int, metavar="TRIALS")
    gr.add_argument("--trace-expansion", nargs=2, metavar=("KSET", "Q"))
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("-o", "--output", required=True)

    mc = sub.add_parser("mc", help="seeded Monte Carlo experiments")
    mc_sub = mc.add_subparsers(dest="experiment", required=True)
    for experiment, text in (
        ("fro", "flat-orthogonality criterion trials"),
        ("power", "trace power estimate trials"),
    ):
        exp = mc_sub.add_parser(experiment, help=text)
        exp.add_argument("--m", required=True, help="row count or comma-separated sweep")
        exp.add_argument("--n", type=int, required=True)
        exp.add_argument("--k", type=int, required=True)
        if experiment == "power":
            exp.add_argument("--q", type=int, required=True)
        exp.add_argument("--delta", type=float, required=True)
        exp.add_argument("--trials", type=int, required=True)
        exp.add_argument("--seed", type=int, required=True)
        exp.add_argument("--ensemble", choices=("gaussian", "bernoulli"), default="gaussian")
        exp.add_argument("-o", "--output", required=True)
    tail = mc_sub.add_parser("tail", help="column-sum tail table")
    tail.add_argument("--m", required=True, help="term count or comma-separated sweep")
    tail.add_argument("--k1", type=int, required=True)
    tail.add_argument("--k2", type=int, required=True)
    tail.add_argument("--trials", type=int, required=True)
    tail.add_argument("--seed", type=int, required=True)
    tail.add_argument("-o", "--output", required=True)
    return parser


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.family == "steiner":
        if args.design:
            system = read_steiner(args.design)
        else:
            if args.v is None or args.k is None:
                raise _UsageError("steiner needs --v and --k (or --design FILE)")
            if args.k == 2:
                system = all_pairs_steiner(args.v)
            elif args.k == 3:
                system = steiner_triple(args.v)
            else:
                raise InvalidParameterError(
                    f"only k=2 and k=3 designs are built in; load k={args.k} via --design"
                )
        size = system.replication + 1
        kind = args.hadamard
        if kind == "auto":
            kind = "sylvester" if size & (size - 1) == 0 else "dft"
        frame = steiner_etf(system, hadamard(size, kind))
        if args.design_out:
            write_steiner(args.design_out, system)
    elif args.family == "paley":
        frame = paley_etf(args.p, require_1mod4=not args.allow_3mod4)
    elif args.family == "gaussian":
        frame = gaussian_matrix(args.m, args.n, args.seed)
    else:
        frame = bernoulli_matrix(args.m, args.n, args.seed)
    # the Gram-based checks run first, so a refused Gram leaves no file behind
    rep = verify_etf(frame)
    write_matrix(args.output, frame)
    print(f"wrote {args.output}: {frame.label}")
    print(f"rows {frame.m} cols {frame.n}")
    if frame.n >= 2:
        print(f"coherence {frame.coherence!r}")
        if frame.n >= frame.m:
            print(f"welch-bound {welch_bound(frame.m, frame.n)!r}")
    print(
        "etf-axioms"
        f" unit-norm={'pass' if rep.unit_norm_ok else 'fail'}"
        f" tight-rows={'pass' if rep.tight_ok else 'fail'}"
        f" equiangular={'pass' if rep.equiangular_ok else 'fail'}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _write_certification(writer: ReportWriter, report) -> None:
    writer.section("frame")
    writer.kv("label", report.label)
    writer.kv("rows", report.m)
    writer.kv("cols", report.n)
    if report.coherence is not None:
        writer.kv("coherence", report.coherence)
    if report.welch is not None:
        writer.kv("welch-bound", report.welch)
    writer.kv("delta1", report.delta1)
    for rec in report.per_k:
        writer.section(f"K={rec.k}")
        if rec.gershgorin is not None:
            writer.kv("gershgorin", rec.gershgorin)
        if rec.ric is not None:
            writer.kv("ric-exact", rec.ric.value)
            writer.kv("ric-exact-witness", rec.ric.witness)
            writer.kv("ric-exact-count", rec.ric.count)
        for q, value in rec.powers:
            writer.kv(f"power-q{q}", value)
        if rec.roc is not None:
            writer.kv("roc-exact", rec.roc.value)
            writer.kv("roc-witness-i", rec.roc.witness_i)
            writer.kv("roc-witness-j", rec.roc.witness_j)
            writer.kv("roc-count", rec.roc.count)
        if rec.fro is not None:
            writer.kv("fro-constant", rec.fro.value)
            writer.kv("fro-witness-i", rec.fro.witness_i)
            writer.kv("fro-witness-j", rec.fro.witness_j)
            writer.kv("fro-count", rec.fro.count)
        for name, value in rec.bounds:
            writer.kv(name, value)
        writer.comment(f"wall {rec.wall:.6f}s")
    if report.spark is not None:
        writer.section("spark")
        writer.kv("cap", report.spark.cap)
        writer.kv("exact", report.spark.exact)
        writer.kv("spark", report.spark.spark)
        writer.kv("lower-bound", report.spark.lower_bound)
        if report.spark.witness is not None:
            writer.kv("witness", report.spark.witness)
        writer.kv("tested", report.spark.tested)
        discs = report.spark.disc_sizes
        decided = sum(math.comb(report.n, s) for s in range(1, discs + 1))
        sizes = {0: "no spark size", 1: "spark size 1"}.get(discs, f"spark sizes 1-{discs}")
        writer.comment(
            f"{sizes} decided by Gershgorin discs, {report.spark.tested - decided} enumerated"
        )


def _cmd_certify(args) -> int:
    frame = read_matrix(args.input)
    power_specs = [(_int(k), _int_list(qlist)) for k, qlist in (args.power or [])]
    for k, qs in power_specs:
        if not qs:
            raise _UsageError(f"--power {k} needs at least one q")
    exact_ks = args.exact_ric or []
    roc_ks = args.roc or []
    fro_ks = args.fro or []
    if args.gershgorin and not (exact_ks or roc_ks or fro_ks or power_specs):
        raise _UsageError("--gershgorin needs at least one K from another flag")
    if args.budget < 0:
        raise InvalidParameterError(f"--budget must be >= 0, got {args.budget}")
    report = certify_frame(
        frame,
        gershgorin=args.gershgorin,
        exact_ks=exact_ks,
        power_specs=power_specs,
        roc_ks=roc_ks,
        fro_ks=fro_ks,
        spark_cap=args.spark,
        bounds=args.bounds,
        budget=args.budget,
    )
    violations = report.invariant_violations()
    writer = ReportWriter(__version__)
    writer.kv("command", "certify")
    writer.kv("input", args.input)
    writer.kv("input-sha256", sha256_file(args.input))
    _write_certification(writer, report)
    summary = []
    for rec in report.per_k:
        parts = [f"K={rec.k}"]
        if rec.ric is not None:
            parts.append(f"ric={rec.ric.value!r}")
        if rec.gershgorin is not None:
            parts.append(f"gershgorin={rec.gershgorin!r}")
        summary.append(" ".join(parts))
    if report.spark is not None:
        summary.append(
            f"spark: {report.spark.spark if report.spark.exact else f'> {report.spark.cap}'}"
        )
    return _finish(writer, args.output, violations, summary)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def _run_mixing(writer: ReportWriter, g, trials: int, seed: int) -> list[str]:
    if g.n == 0:
        raise InvalidParameterError("--mixing needs a graph with at least one vertex")
    rng = _generator(seed)
    violations = []
    worst = 0.0
    for _ in range(trials):
        size_i = int(rng.integers(1, g.n + 1))
        size_j = int(rng.integers(1, g.n + 1))
        i_set = sorted(int(x) for x in rng.choice(g.n, size=size_i, replace=False))
        j_set = sorted(int(x) for x in rng.choice(g.n, size=size_j, replace=False))
        check = expander_mixing_check(g, i_set, j_set)
        if check.rhs > 0:
            worst = max(worst, check.lhs / check.rhs)
        if not check.ok:
            violations.append(f"mixing bound failed for I={i_set} J={j_set}")
    writer.section("mixing")
    writer.kv("trials", trials)
    writer.kv("seed", seed)
    writer.kv("worst-ratio", worst)
    writer.kv("all-ok", not violations)
    return violations


def _cmd_graph(args) -> int:
    inputs = sum(x is not None for x in (args.input or None, args.paley_graph, args.graph_in))
    if inputs == 0:
        raise _UsageError("graph needs a matrix file, --paley-graph P or --graph-in FILE")
    if inputs > 1:
        raise _UsageError("graph takes one input: a matrix file, --paley-graph or --graph-in")
    frame_only = [
        flag
        for flag, used in (
            ("--canonicalize", args.canonicalize is not None),
            ("--seidel", args.seidel),
            ("--predicted-srg", args.predicted_srg),
            ("--trace-expansion", args.trace_expansion is not None),
        )
        if used
    ]
    if frame_only and not args.input:
        raise _UsageError(f"{frame_only[0]} needs a matrix file input")
    if args.mixing is not None and args.mixing < 0:
        raise InvalidParameterError(f"--mixing must be >= 0, got {args.mixing}")
    writer = ReportWriter(__version__)
    writer.kv("command", "graph")
    violations: list[str] = []

    # pick the graph: a paley graph, a graph file, or a frame's descendant graph
    p = args.paley_graph
    frame = None
    if p is not None:
        g = paley_graph(p)
        writer.kv("paley-graph", p)
    elif args.graph_in is not None:
        g = read_graph(args.graph_in)
        writer.kv("graph-in", args.graph_in)
        writer.kv("input-sha256", sha256_file(args.graph_in))
    else:
        frame = read_matrix(args.input)
        writer.kv("input", args.input)
        writer.kv("input-sha256", sha256_file(args.input))
        if not frame.is_real:
            frame = realify(frame)  # raises NotRealError (exit 4) for complex Grams
        anchor = args.canonicalize if args.canonicalize is not None else frame.n - 1
        seidel, mu = seidel_from_gram(frame)
        seidel, g = descendant_graph(seidel, anchor)
        writer.section("frame")
        writer.kv("label", frame.label)
        writer.kv("rows", frame.m)
        writer.kv("cols", frame.n)
        writer.kv("coherence", mu)
        writer.kv("anchor", anchor)
        if args.seidel:
            writer.section("seidel")
            for v in range(seidel.n):
                row = "".join("0" if x == 0 else ("+" if x > 0 else "-") for x in seidel.entries[v])
                writer.kv(str(v), row)

    writer.section("adjacency" if frame is None else "descendant-adjacency")
    writer.kv("vertices", g.n)
    for v in range(g.n):
        writer.kv(str(v), g.neighbors(v))
    if frame is not None and (args.predicted_srg or args.srg_check):
        predicted = predicted_srg(frame.m, frame.n)
        writer.section("predicted-srg")
        writer.kv("params", str(predicted))
    if args.srg_check:
        result = srg_check(g)
        writer.section("srg-check")
        writer.kv("status", result.status)
        writer.kv("params", str(result.params) if result.params else result.reason)
        if frame is not None:
            match = result.is_srg and result.params == predicted
            writer.kv("matches-predicted", match)
            if not match:
                violations.append(
                    f"descendant graph is {result.params or result.reason}, expected {predicted}"
                )
        elif p is not None and not result.is_srg:
            violations.append(f"paley graph of order {p} failed strong regularity")
    if args.clique:
        res = paley_clique_number(g) if p is not None else clique_number(g)
        writer.section("clique")
        writer.kv("omega", res.size)
        writer.kv("witness", res.clique)
        writer.kv("exact", res.exact)
        writer.kv("nodes", res.nodes)
        if p is not None:
            writer.kv("sqrt-p", math.sqrt(p))
            ok = res.size < math.sqrt(p)
            writer.kv("below-sqrt-p", ok)
            if not ok:
                violations.append(f"clique number {res.size} is not below sqrt({p})")
    if args.mixing:
        violations.extend(_run_mixing(writer, g, args.mixing, args.seed))
    if args.trace_expansion:
        kset = _int_list(args.trace_expansion[0])
        q = _int(args.trace_expansion[1])
        result = seidel_trace_expansion(frame, kset, q)
        writer.section("trace-expansion")
        writer.kv("kset", tuple(kset))
        writer.kv("q", q)
        writer.kv("direct", result.direct)
        writer.kv("expansion", result.expansion)
        writer.kv("tuple-sum", result.tuple_sum)
        if result.q2_first_term is not None:
            writer.kv("q2-first-term", result.q2_first_term)
            writer.kv("q2-residual", result.q2_residual)
        writer.kv("ok", result.ok)
        if not result.ok:
            violations.append("trace expansion routes disagree")

    if args.graph_out:
        write_graph(args.graph_out, g)
        print(f"wrote {args.graph_out}")
    return _finish(writer, args.output, violations)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def _write_outcome(writer: ReportWriter, m: int, outcome) -> None:
    writer.section(f"m={m}")
    writer.kv("trials", outcome.trials)
    writer.kv("successes", outcome.successes)
    writer.kv("frequency", outcome.frequency)
    lo, hi = outcome.confidence_interval
    writer.kv("ci-low", lo)
    writer.kv("ci-high", hi)
    for name, value in outcome.thresholds:
        writer.kv(f"threshold-{name}", value)
    if outcome.meets_measurement_bound is not None:
        writer.kv("meets-measurement-bound", outcome.meets_measurement_bound)
    writer.kv("failures", len(outcome.failures))
    for i, fail in enumerate(outcome.failures[:20]):
        writer.kv(
            f"failure-{i}",
            f"trial={fail.trial} seed={fail.seed} reason={fail.reason} "
            f"value={fail.value!r} subsets={fail.subsets}",
        )


def _cmd_mc(args) -> int:
    writer = ReportWriter(__version__)
    writer.kv("command", f"mc {args.experiment}")
    violations: list[str] = []
    m_values = _int_list(args.m)
    if not m_values:
        raise _UsageError("--m needs at least one value")
    if args.experiment in ("fro", "power"):
        cfg = TrialConfig(
            m=m_values[0],
            n=args.n,
            k=args.k,
            trials=args.trials,
            base_seed=args.seed,
            delta=args.delta,
            ensemble=args.ensemble,
            q=getattr(args, "q", None),
        )
        runner = run_fro_trials if args.experiment == "fro" else run_power_trials
        writer.kv("n", args.n)
        writer.kv("k", args.k)
        writer.kv("delta", args.delta)
        writer.kv("trials", args.trials)
        writer.kv("seed", args.seed)
        writer.kv("ensemble", args.ensemble)
        if args.experiment == "power":
            writer.kv("q", args.q)
        results = []
        for m in m_values:
            start = time.perf_counter()
            outcome = runner(replace(cfg, m=m))
            _write_outcome(writer, m, outcome)
            writer.comment(f"wall {time.perf_counter() - start:.6f}s workers {worker_count()}")
            results.append((m, outcome))
        freqs = [outcome.frequency for _, outcome in results]
        print("frequencies: " + " ".join(f"m={m}:{o.frequency:.3f}" for m, o in results))
        for (m, o) in results:
            lo, hi = o.confidence_interval
            print(f"m={m}: {o.successes}/{o.trials} ci=({lo:.3f}, {hi:.3f})")
        writer.section("sweep")
        writer.kv("m-values", tuple(m_values))
        writer.kv("frequencies", tuple(freqs))
    else:
        writer.kv("k1", args.k1)
        writer.kv("k2", args.k2)
        writer.kv("trials", args.trials)
        writer.kv("seed", args.seed)
        for m in m_values:
            start = time.perf_counter()
            table = column_sum_tail(m, args.k1, args.k2, args.trials, args.seed)
            writer.section(f"m={m}")
            for row in table.rows:
                writer.kv(
                    f"theta-{row.theta_hat}",
                    f"count={row.count} empirical={row.empirical!r} "
                    f"bound={row.bound!r} ok={row.ok} symmetric={row.symmetric_ok}",
                )
            # one generator draws every block, so the tail table runs serially
            writer.comment(f"wall {time.perf_counter() - start:.6f}s workers 1")
            if not table.all_ok:
                violations.append(f"m={m}: empirical tail exceeded its bound")
            if not table.all_symmetric:
                violations.append(
                    f"m={m}: tail asymmetry beyond {sidak_z(len(table.rows)):.2f} standard "
                    f"errors (Sidak level for {len(table.rows)} rows)"
                )
            print(f"m={m}: all-ok={table.all_ok} symmetric={table.all_symmetric}")
    return _finish(writer, args.output, violations)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "graph":
            return _cmd_graph(args)
        return _cmd_mc(args)
    except (_UsageError, RipcertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (code for kind, code in _ERROR_EXITS.items() if isinstance(exc, kind)), EXIT_USAGE
        )
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
