"""Spans around the calls into each layer of hybrid_teleport, recorded from outside.

The program is not edited. `install` replaces the module-level names that
callers resolve at call time (``from .fock import beam_splitter_50_50`` binds
a name in ``teleport``, so every module holding the function gets the
wrapper) and returns a function that puts the originals back. Spans are kept
in memory as ``(name, start, end, parent, info)`` and written out at the end.
"""

from __future__ import annotations

from array import array
import functools
import importlib
import json
import math
import time
from pathlib import Path

from metrics import SpanCost, group_self_time, group_time, self_times

MODULES = ("fock", "channels", "entanglement", "teleport", "averages", "verify", "cli")

# (module, function) pairs wrapped in spans; the span is named module.function
SPANNED = (
    ("fock", "beam_splitter_50_50"),
    ("fock", "trace_distance"),
    ("channels", "evolve"),
    ("channels", "rho_pc_analytic"),
    ("entanglement", "negativity_numeric"),
    ("teleport", "teleport_c_to_p"),
    ("teleport", "teleport_p_to_c"),
    ("teleport", "teleport_p_to_s"),
    ("teleport", "teleport_s_to_p"),
    ("teleport", "pipeline_summary"),
    ("averages", "avg_fidelity"),
    ("averages", "avg_success_probability"),
    ("averages", "classical_limit"),
    ("averages", "avg_fidelity_quadrature"),
    ("averages", "avg_success_quadrature"),
    ("averages", "classical_limit_quadrature"),
    ("averages", "bloch_average"),
    ("verify", "_channel_checks"),
    ("verify", "_negativity_checks"),
    ("verify", "_pipeline_checks"),
    ("verify", "_moment_checks"),
    ("verify", "_average_checks"),
    ("cli", "main"),
)
CACHED = "fock.beam_splitter_50_50"
ROW_WRITER = ("cli", "_write_csv")  # counted, not spanned: CSV formatting is cli's own work

CLOSED_FORM = {"averages.avg_fidelity", "averages.avg_success_probability",
               "averages.classical_limit"}
QUADRATURE = {"averages.avg_fidelity_quadrature", "averages.avg_success_quadrature",
              "averages.classical_limit_quadrature", "averages.bloch_average"}
PHASES = ("channel", "negativity", "pipeline", "moment", "average")

LAYER_METRICS = {
    # name: unit
    "fock.beam_splitter_50_50.build_s": "s",
    "fock.beam_splitter_50_50.builds": "count",
    "fock.beam_splitter_50_50.hit_ratio": "ratio",
    "fock.beam_splitter_50_50.bytes": "B",
    "fock.beam_splitter_50_50.tail_share": "ratio",
    "fock.trace_distance.s": "s",
    "channels.evolve.s": "s",
    "channels.evolve.calls": "count",
    "channels.rho_pc_analytic.s": "s",
    "entanglement.negativity_numeric.s": "s",
    "entanglement.negativity_numeric.calls": "count",
    "teleport.teleport_c_to_p.self_s": "s",
    "teleport.teleport_c_to_p.calls": "count",
    "teleport.teleport_p_to_c.s": "s",
    "teleport.teleport_p_to_s.s": "s",
    "teleport.teleport_s_to_p.s": "s",
    "teleport.pipeline_summary.self_s": "s",
    "averages.closed_form.s": "s",
    "averages.closed_form.calls": "count",
    "averages.quadrature.s": "s",
    "averages.quadrature.calls": "count",
    **{f"verify.phase.{p}_s": "s" for p in PHASES},
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.span_cost_s": "s",
}


class Tracer:
    """In-memory span recorder for one thread of calls.

    Spans are kept column by column in flat arrays, so recording one creates
    no object for the garbage collector to track and its cost stays the same
    however many spans a unit makes. ``spans`` builds the tuples afterwards.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._info: dict[int, dict] = {}
        self._stack = [-1]
        self.rows_written = 0

    @property
    def spans(self) -> list:
        return [(name, start, end, None if parent < 0 else parent, self._info.get(i))
                for i, (name, start, end, parent)
                in enumerate(zip(self._names, self._starts, self._ends, self._parents))]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, outside any wrapped call."""
        self._names.append(name)
        self._starts.append(start)
        self._ends.append(end)
        self._parents.append(-1)

    def wrap(self, name: str, fn):
        cached = name == CACHED
        names, starts, ends, parents, stack = (
            self._names, self._starts, self._ends, self._parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            misses = fn.cache_info().misses if cached else 0
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
                if cached:
                    miss = fn.cache_info().misses > misses
                    built = miss and result is not None
                    self._info[index] = {"miss": miss, "bytes": int(result.nbytes) if built else 0}

        return traced

    def count_rows(self, fn):
        @functools.wraps(fn)
        def counted(path, header, rows):
            self.rows_written += len(rows)
            return fn(path, header, rows)

        return counted

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "rows_written": self.rows_written}))


def span_cost(calls: int = 20000, repeats: int = 5) -> SpanCost:
    """The tracer's time per span, from a wrapped no-op against a bare one.

    ``inside`` is what a no-op span records beyond the bare call; ``outside``
    is the rest of the wrapper's time (stack push, span append), which lands
    in the caller's span. Best of ``repeats``. The calls pass arguments as the
    program's do, since packing them is part of the wrapper's work.
    """
    def noop(a, b, key=None):
        return None

    best = SpanCost(math.inf, math.inf)
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop(1.0, 2.0, key=3)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped(1.0, 2.0, key=3)
        traced = time.perf_counter() - start
        inside = math.fsum(end - begin for _, begin, end, _, _ in tracer.spans)
        best = SpanCost(min(best.inside, (inside - bare) / calls),
                        min(best.outside, (traced - inside) / calls))
    return SpanCost(max(0.0, best.inside), max(0.0, best.outside))


def _rebind(modules, original, replacement, undo) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))


def _modules() -> list:
    package = importlib.import_module("hybrid_teleport")
    return [package, *(importlib.import_module(f"hybrid_teleport.{name}") for name in MODULES)]


def _remover(undo: list):
    def remove() -> None:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)

    return remove


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function that removes the wrappers."""
    everywhere = _modules()
    undo: list = []
    for mod_name, attr in SPANNED:
        original = getattr(importlib.import_module(f"hybrid_teleport.{mod_name}"), attr)
        _rebind(everywhere, original, tracer.wrap(f"{mod_name}.{attr}", original), undo)
    writer = getattr(importlib.import_module(f"hybrid_teleport.{ROW_WRITER[0]}"), ROW_WRITER[1])
    _rebind(everywhere, writer, tracer.count_rows(writer), undo)
    return _remover(undo)


def count_calls(mod_name: str, attr: str):
    """Count the calls of one function wherever callers resolve it, without timing them.

    Returns a one-element list holding the live count, and a function that
    removes the counter.
    """
    original = getattr(importlib.import_module(f"hybrid_teleport.{mod_name}"), attr)
    count = [0]

    @functools.wraps(original)
    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    undo: list = []
    _rebind(_modules(), original, counted, undo)
    return count, _remover(undo)


def clear_program_caches() -> None:
    """Empty the program's memo caches so each timed unit starts cold, as a new process would."""
    for name in MODULES:
        for value in vars(importlib.import_module(f"hybrid_teleport.{name}")).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def layer_metrics(spans, rows_written: int = 0, cost: SpanCost = SpanCost()) -> dict[str, float]:
    """Per-layer totals over a list of spans; layers a workload never calls read 0.

    Times leave out the tracer's ``cost`` per span (see ``span_cost``).

    ``verify.checks``, ``verify.checks_failed``, ``trace.wall_s`` (the traced
    unit's wall time), ``trace.span_cost_s`` and
    ``fock.beam_splitter_50_50.tail_share`` are measured by the workload and
    start at 0 here.
    """
    selfs = self_times(spans, cost)
    out = dict.fromkeys(LAYER_METRICS, 0.0)

    bs = [s for s in spans if s[0] == CACHED]
    builds = [s for s in bs if s[4]["miss"]]
    out["fock.beam_splitter_50_50.build_s"] = sum(s[2] - s[1] for s in builds)
    out["fock.beam_splitter_50_50.builds"] = len(builds)
    out["fock.beam_splitter_50_50.hit_ratio"] = (len(bs) - len(builds)) / len(bs) if bs else 0.0
    out["fock.beam_splitter_50_50.bytes"] = sum(s[4]["bytes"] for s in builds)
    def timed(*names):
        return group_time(spans, set(names), cost)

    out["fock.trace_distance.s"] = timed("fock.trace_distance")[0]
    out["channels.evolve.s"], out["channels.evolve.calls"] = timed("channels.evolve")
    out["channels.rho_pc_analytic.s"] = timed("channels.rho_pc_analytic")[0]
    (out["entanglement.negativity_numeric.s"],
     out["entanglement.negativity_numeric.calls"]) = timed("entanglement.negativity_numeric")
    out["teleport.teleport_c_to_p.self_s"] = group_self_time(
        spans, {"teleport.teleport_c_to_p"}, selfs)
    out["teleport.teleport_c_to_p.calls"] = timed("teleport.teleport_c_to_p")[1]
    for d in ("p_to_c", "p_to_s", "s_to_p"):
        out[f"teleport.teleport_{d}.s"] = timed(f"teleport.teleport_{d}")[0]
    out["teleport.pipeline_summary.self_s"] = group_self_time(
        spans, {"teleport.pipeline_summary"}, selfs)
    out["averages.closed_form.s"], out["averages.closed_form.calls"] = timed(*CLOSED_FORM)
    out["averages.quadrature.s"], out["averages.quadrature.calls"] = timed(*QUADRATURE)
    for phase in PHASES:
        out[f"verify.phase.{phase}_s"] = timed(f"verify._{phase}_checks")[0]
    out["cli.self_s"] = group_self_time(spans, {"cli.main"}, selfs)
    out["cli.rows_written"] = rows_written
    out["trace.spans"] = len(spans)
    return {k: float(v) for k, v in out.items()}


def top_self_times(spans, cost: SpanCost = SpanCost(), k: int = 5) -> list[tuple[str, float]]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans, cost)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return sorted(totals.items(), key=lambda kv: -kv[1])[:k]
