"""In-memory span tracer for the traced benchmark child, and the per-layer split.

``Tracer.install`` wraps every public function of every ``ripcert`` module
in the namespace of each module that binds it, so a call is traced no
matter which module makes it. The package's own files are not touched:
the wrappers exist only in the traced child process. Each span records
its name, start, end, parent, thread and whether it raised; counts
(evaluations, chunks, clique nodes, bytes written, ...) are taken at the
same boundaries from the wrapped call's arguments and result. Spans stay
in memory until the child writes them out at the end of its run.

``layer_metrics`` turns one child's spans and counts into the per-layer
metrics listed in BENCHMARK.json. A span's layer is the ``ripcert``
module that defines the function; its self time is its duration minus
the durations of its direct children on the same thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

#: modules whose public functions are wrapped; each one is a layer
LAYERS = (
    "cli",
    "certification",
    "subsets",
    "montecarlo",
    "graphs",
    "constructions",
    "linalg",
    "fileio",
    "modular",
)

SEARCHES = {
    "certification.ric_exact_search": "ric",
    "certification.ric_power_search": "power",
    "certification.roc_exact_search": "roc",
    "certification.fro_constant_search": "fro",
    "certification.spark_search": "spark",
}
CHUNK_GENERATORS = ("subsets.iter_subset_chunks", "subsets.iter_disjoint_pair_chunks")
KERNEL = "certification.kernel"
READERS = ("fileio.read_matrix", "fileio.read_graph", "fileio.read_steiner", "fileio.sha256_file")
WRITERS = (
    "fileio.write_matrix",
    "fileio.write_graph",
    "fileio.write_steiner",
    "fileio.ReportWriter.write",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Collects spans and counts from wrapped ``ripcert`` functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, fallback_parent=None):
        stack = self._stack()
        parent = stack[-1] if stack else fallback_parent
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start, raised):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), raised))

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, fn, name, note=None, fallback_parent=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open(fallback_parent)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, sid, parent, start, True)
                raise
            self._close(name, sid, parent, start, False)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, gen, name, note=None):
        """Time every ``next()`` on ``gen`` as one span named ``name``."""
        while True:
            sid, parent, start = self._open()
            try:
                item = next(gen)
            except StopIteration:
                self._close(name, sid, parent, start, False)
                return
            except BaseException:
                self._close(name, sid, parent, start, True)
                raise
            self._close(name, sid, parent, start, False)
            if note is not None:
                note(self, item)
            yield item

    def _wrap_function(self, fn, name):
        if name == "subsets.ordered_map":
            return self._wrap_ordered_map(fn)
        if inspect.isgeneratorfunction(fn):
            note = _chunk_note if name in CHUNK_GENERATORS else None

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self.wrap_generator(fn(*args, **kwargs), name, note)

            return traced_gen
        return self.wrap_call(fn, name, NOTES.get(name))

    def _wrap_ordered_map(self, fn):
        @functools.wraps(fn)
        def traced(kernel, items, workers):
            if workers > 1:
                self.count("subsets.pool_starts", 1)
            # workers have no open span; their kernel spans hang off the caller's
            traced_kernel = self.wrap_call(kernel, KERNEL, fallback_parent=self.current())
            return self.wrap_generator(fn(traced_kernel, items, workers), "subsets.ordered_map")

        return traced

    def install(self, package) -> None:
        """Wrap every public ripcert function wherever a ripcert module binds it."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("ripcert.") or layer not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap_function(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrapped[id(obj)])
        # public methods whose cost the per-layer metrics need
        draw = modules["montecarlo"].TrialConfig.draw
        modules["montecarlo"].TrialConfig.draw = self.wrap_call(draw, "montecarlo.TrialConfig.draw")
        writer = modules["fileio"].ReportWriter
        writer.write = self.wrap_call(writer.write, "fileio.ReportWriter.write", _written_note(1))

    def dump(self) -> dict:
        main = threading.main_thread().ident
        return {
            "main_thread": main,
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# counts taken at the wrapped boundaries
# ---------------------------------------------------------------------------


def _chunk_note(tracer, item):
    rows = item[0] if isinstance(item, tuple) else item
    tracer.count("subsets.chunks", 1)
    tracer.count("subsets.items", len(rows))


def _search_note(size_arg):
    def note(tracer, args, kwargs, result):
        evals = result.tested if hasattr(result, "tested") else result.count
        k = _arg(args, kwargs, 1, size_arg)
        tracer.count("certification.calls", 1)
        tracer.count("certification.evals", evals)
        tracer.count("certification.gather_bytes", evals * k * k * 8)

    return note


def _trials_note(tracer, args, kwargs, result):
    tracer.count("montecarlo.trials", result.trials)


def _tail_note(tracer, args, kwargs, result):
    tracer.count("montecarlo.tail_samples", result.trials)


def _clique_note(tracer, args, kwargs, result):
    tracer.count("graphs.clique_nodes", result.nodes)


def _mixing_note(tracer, args, kwargs, result):
    tracer.count("graphs.mixing_calls", 1)


def _tuples_note(tracer, args, kwargs, result):
    k = len(list(_arg(args, kwargs, 1, "kset")))
    tracer.count("graphs.trace_tuples", k ** (2 * _arg(args, kwargs, 2, "q")))


def _written_note(path_pos):
    def note(tracer, args, kwargs, result):
        tracer.count("fileio.bytes_written", os.path.getsize(_arg(args, kwargs, path_pos, "path")))

    return note


NOTES = {
    "certification.ric_exact_search": _search_note("k"),
    "certification.ric_power_search": _search_note("k"),
    "certification.roc_exact_search": _search_note("k"),
    "certification.fro_constant_search": _search_note("k"),
    "certification.spark_search": _search_note("cap"),
    "montecarlo.run_fro_trials": _trials_note,
    "montecarlo.run_power_trials": _trials_note,
    "montecarlo.column_sum_tail": _tail_note,
    "graphs.clique_number": _clique_note,
    "graphs.expander_mixing_check": _mixing_note,
    "graphs.seidel_trace_expansion": _tuples_note,
    "fileio.write_matrix": _written_note(0),
    "fileio.write_graph": _written_note(0),
    "fileio.write_steiner": _written_note(0),
}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced child
# ---------------------------------------------------------------------------


class SpanTree:
    """Spans of one child, indexed for inclusive and self times."""

    def __init__(self, dump: dict):
        self.main = dump["main_thread"]
        self.counts = Counter(dump["counts"])
        self.spans = {s[0]: s for s in dump["spans"]}
        self.by_name: dict[str, list] = defaultdict(list)
        for s in self.spans.values():
            self.by_name[s[1]].append(s)
        child_time: dict[int, float] = defaultdict(float)
        for sid, _name, start, end, parent, thread, _raised in self.spans.values():
            owner = self.spans.get(parent)
            if owner is not None and owner[5] == thread:
                child_time[parent] += end - start
        self.self_time = {
            sid: (s[3] - s[2]) - child_time[sid] for sid, s in self.spans.items()
        }

    def _outermost(self, names) -> list[tuple]:
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        out = []
        for name in names:
            for span in self.by_name[name]:
                parent = self.spans.get(span[4])
                while parent is not None and parent[1] not in names:
                    parent = self.spans.get(parent[4])
                if parent is None:
                    out.append(span)
        return out

    def inclusive(self, *names) -> float:
        return sum(s[3] - s[2] for s in self._outermost(set(names)))

    def self_of(self, name) -> float:
        return sum(self.self_time[s[0]] for s in self.by_name[name])

    def raised(self, name) -> int:
        return sum(1 for s in self.by_name[name] if s[6])

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def layer_self(self, window=None) -> dict[str, tuple[float, float]]:
        """Per layer: (self time on the main thread, busy time on other threads)."""
        table = {layer: [0.0, 0.0] for layer in LAYERS}
        for sid, s in self.spans.items():
            if window is not None and not (window[0] <= s[2] and s[3] <= window[1]):
                continue
            table[s[1].partition(".")[0]][0 if s[5] == self.main else 1] += self.self_time[sid]
        return {layer: (v[0], v[1]) for layer, v in table.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tree: SpanTree) -> dict[str, float]:
    """Every per-layer metric except the two taken from the 2-worker child."""
    c = tree.counts
    enumerate_s = tree.inclusive(*CHUNK_GENERATORS)
    kernel_s = tree.inclusive(KERNEL)
    clique_s = tree.inclusive("graphs.clique_number")
    build = [f"constructions.{n}" for n in (
        "paley_etf", "gaussian_matrix", "bernoulli_matrix", "steiner_etf", "hadamard",
        "all_pairs_steiner", "steiner_triple", "incidence_matrix", "negate_columns",
    )]
    out = {
        "subsets.enumerate_s": enumerate_s,
        "subsets.chunks": c["subsets.chunks"],
        "subsets.items": c["subsets.items"],
        "subsets.items_per_s": _ratio(c["subsets.items"], enumerate_s),
        "certification.kernel_s": kernel_s,
        "certification.calls": c["certification.calls"],
        "certification.evals": c["certification.evals"],
        "certification.evals_per_kernel_s": _ratio(c["certification.evals"], kernel_s),
        "certification.gather_bytes": c["certification.gather_bytes"],
        **{f"certification.{short}_s": tree.inclusive(name) for name, short in SEARCHES.items()},
        "montecarlo.trials": c["montecarlo.trials"],
        "montecarlo.draw_s": tree.inclusive("montecarlo.TrialConfig.draw"),
        "montecarlo.tail_s": tree.inclusive("montecarlo.column_sum_tail"),
        "montecarlo.tail_samples": c["montecarlo.tail_samples"],
        "graphs.clique_s": clique_s,
        "graphs.clique_nodes": c["graphs.clique_nodes"],
        "graphs.clique_nodes_per_s": _ratio(c["graphs.clique_nodes"], clique_s),
        "graphs.srg_s": tree.inclusive("graphs.srg_check"),
        "graphs.mixing_s": tree.inclusive("graphs.expander_mixing_check"),
        "graphs.mixing_calls": c["graphs.mixing_calls"],
        "graphs.trace_expansion_s": tree.inclusive("graphs.seidel_trace_expansion"),
        "graphs.trace_tuples": c["graphs.trace_tuples"],
        "graphs.paley_graph_s": tree.inclusive("graphs.paley_graph"),
        "constructions.build_s": tree.inclusive(*build),
        "constructions.realify_s": tree.inclusive("constructions.realify"),
        "constructions.realify_failed": tree.raised("constructions.realify"),
        "linalg.cholesky_s": tree.inclusive("linalg.semidefinite_cholesky"),
        "linalg.gram_s": tree.inclusive("linalg.gram"),
        "fileio.read_s": tree.inclusive(*READERS),
        "fileio.write_s": tree.inclusive(*WRITERS),
        "fileio.bytes_written": c["fileio.bytes_written"],
        "cli.ops": tree.calls("cli.main"),
    }
    table = tree.layer_self()
    out["cli.self_s"] = table["cli"][0]
    for layer in LAYERS[1:]:
        out[f"self.{layer}_s"] = table[layer][0]
    return out


def wait_metrics(tree: SpanTree) -> dict[str, float]:
    """The two metrics that only a child with more than one worker shows."""
    return {
        "subsets.wait_s": tree.self_of("subsets.ordered_map"),
        "subsets.pool_starts": tree.counts["subsets.pool_starts"],
    }


def accounted_share(tree: SpanTree, window: tuple[float, float]) -> float:
    """Main-thread self time of all layers over the ops window, as a share of it."""
    total = sum(main for main, _ in tree.layer_self(window).values())
    return _ratio(total, window[1] - window[0])


def format_table(tree: SpanTree, window: tuple[float, float]) -> list[str]:
    wall = window[1] - window[0]
    lines = [f"{'layer':<14} {'self_s':>9} {'share':>7} {'other_threads_s':>16}"]
    for layer, (main, other) in tree.layer_self(window).items():
        lines.append(f"{layer:<14} {main:9.4f} {_ratio(main, wall):7.1%} {other:16.4f}")
    return lines

