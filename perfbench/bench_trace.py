"""Outside-in tracing of the relaysop layers, from the benchmark's own files.

`Tracer` wraps every public function of each layer module and rebinds every
name under which a relaysop module holds it (`from .analytic import
sop_analytic` in `sweep` and `cli` binds a second name). Each call records a
span: name, layer, start, end, parent span, and the ids of the sweep and the
row it belongs to. Spans stay in memory; `write_spans` saves them at exit.
A few calls into numpy, scipy and mpmath are wrapped to count work where it
happens: Monte Carlo chunk generators, quadrature integrals and integrand
evaluations, multiprecision sums and precision rounds. Leaving the `with`
block restores every attribute it replaced.

The layers are the modules named in LAYERS; `model`, `presets` and `errors`
hold data and types, and their time counts towards their callers.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

from bench_workloads import SCHEMES

LAYERS = ("cli", "sweep", "analytic", "montecarlo", "quadrature", "expdist")
ENGINE_LAYERS = frozenset({"analytic", "montecarlo", "quadrature"})
_MARK = "_perfbench_original"


class Span:
    __slots__ = ("id", "layer", "name", "parent", "sweep", "row", "tag",
                 "start", "end")

    def __init__(self, sid, layer, name, parent, sweep, row, tag, start):
        self.id, self.layer, self.name = sid, layer, name
        self.parent, self.sweep, self.row, self.tag = parent, sweep, row, tag
        self.start, self.end = start, None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Context manager that records spans and counts while it is entered."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.max_dps = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_sweeps = []
        self._patches = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()

    # -- installation ---------------------------------------------------------

    def _install(self):
        import mpmath
        import numpy.random
        import scipy.integrate

        import relaysop.cli  # noqa: F401  (loads every layer)
        from relaysop.model import Scheme
        self._scheme_type = Scheme

        hooks = {("expdist", "subset_rate_sums"): self._count_subsets}
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"relaysop.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(layer, name, obj,
                                               hooks.get((layer, name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "relaysop" and not mod_name.startswith("relaysop."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        self._patch(numpy.random, "default_rng",
                    self._counting(numpy.random.default_rng, self._count_rng))
        self._patch(scipy.integrate, "quad",
                    self._counting(scipy.integrate.quad, self._count_quad))
        self._patch(mpmath, "fsum", self._fsum(mpmath.fsum))
        self._patch(mpmath, "workdps",
                    self._counting(mpmath.workdps, self._count_workdps))
        if len(traced_attributes()) != len(self._patches):
            raise RuntimeError("a wrapped attribute was not rebound")

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_return is not None:
                on_return(result)
            return result

        setattr(traced, _MARK, fn)
        return traced

    def _open(self, layer, name, args):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # a sweep's pool threads start with an empty stack: their calls
        # belong to the run_sweep that submitted them
        parent = stack[-1] if stack else (
            self._open_sweeps[-1] if self._open_sweeps else None)
        sid = next(self._ids)
        sweep = sid if name == "run_sweep" else (parent.sweep if parent else None)
        if layer in ENGINE_LAYERS and (parent is None
                                       or parent.layer not in ENGINE_LAYERS):
            row = sid
        else:
            row = parent.row if parent else None
        tag = next((a.value for a in args if isinstance(a, self._scheme_type)), None)
        span = Span(sid, layer, name, parent.id if parent else None, sweep, row,
                    tag, time.perf_counter())
        stack.append(span)
        if name == "run_sweep":
            self._open_sweeps.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.name == "run_sweep":
            self._open_sweeps.remove(span)
        self.spans.append(span)

    # -- counters -------------------------------------------------------------

    @staticmethod
    def _counting(fn, count):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, result)
            return result
        setattr(counted, _MARK, fn)
        return counted

    def _add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def _count_rng(self, args, result):
        self._add("montecarlo.chunks_drawn")

    def _count_quad(self, args, result):
        self._add("quadrature.integrals")
        if len(result) >= 3 and isinstance(result[2], dict):
            self._add("quadrature.neval", result[2].get("neval", 0))

    def _count_workdps(self, args, result):
        self._add("analytic.dps_rounds")
        with self._lock:
            self.max_dps = max(self.max_dps, int(args[0]))

    def _count_subsets(self, result):
        self._add("expdist.subset_terms", len(result))

    def _fsum(self, fn):
        tracer = self

        @functools.wraps(fn)
        def fsum(terms, *args, **kwargs):
            if not isinstance(terms, (list, tuple)):
                terms = list(terms)
            tracer._add("analytic.mp_terms", len(terms))
            return fn(terms, *args, **kwargs)
        setattr(fsum, _MARK, fn)
        return fsum

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span.as_dict()) + "\n")


_FOREIGN = (("numpy.random", "default_rng"), ("scipy.integrate", "quad"),
            ("mpmath", "fsum"), ("mpmath", "workdps"))


def traced_attributes() -> list:
    """Names of the relaysop, numpy, scipy and mpmath attributes wrapped now."""
    sites = [(name, attr) for name, mod in list(sys.modules.items())
             if name == "relaysop" or name.startswith("relaysop.")
             for attr, obj in list(vars(mod).items()) if inspect.isfunction(obj)]
    sites += [site for site in _FOREIGN if site[0] in sys.modules]
    return [f"{name}.{attr}" for name, attr in sites
            if hasattr(getattr(sys.modules[name], attr, None), _MARK)]


def require_untraced() -> None:
    """Raise unless the program's functions are the originals (timed runs)."""
    wrapped = traced_attributes()
    if wrapped:
        raise RuntimeError(f"traced attributes in an untraced run: {wrapped}")


def covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end)
            for s in spans}


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[q - 1] * 1e3


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> value, from one traced pass."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out = {}

    def parent_of(s):
        return by_id.get(s.parent)

    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        entries = [s.end - s.start for s in mine
                   if parent_of(s) is None or parent_of(s).layer != layer]
        out[f"{layer}.self_s"] = sum(selfs[s.id] for s in mine)
        if layer in ENGINE_LAYERS:
            out[f"{layer}.calls"] = len(entries)
            out[f"{layer}.call_ms_p50"] = _quantile_ms(entries, 50)
            out[f"{layer}.call_ms_p90"] = _quantile_ms(entries, 90)

    for scheme in SCHEMES:
        out[f"analytic.{scheme}.s"] = sum(
            s.end - s.start for s in spans
            if s.name == "sop_analytic" and s.tag == scheme)
    counts = tracer.counts
    for name in ("analytic.mp_terms", "analytic.dps_rounds",
                 "montecarlo.chunks_drawn", "quadrature.integrals",
                 "quadrature.neval", "expdist.subset_terms"):
        out[name] = counts[name]
    out["analytic.max_dps"] = tracer.max_dps
    calls = out["montecarlo.calls"]
    out["montecarlo.chunks_per_row"] = counts["montecarlo.chunks_drawn"] / calls if calls else 0.0

    sweeps = [s for s in spans if s.name == "run_sweep"
              and (parent_of(s) is None or parent_of(s).name != "run_sweep")]
    sweep_ids = {s.id for s in sweeps}
    engine_s = sum(s.end - s.start for s in spans
                   if s.layer in ENGINE_LAYERS and s.parent in sweep_ids)
    sweep_s = sum(s.end - s.start for s in sweeps)
    out["sweep.concurrency"] = engine_s / sweep_s if sweep_s else 0.0
    out["sweep.write_rows_s"] = sum(
        s.end - s.start for s in spans if s.name == "write_rows"
        and (parent_of(s) is None or parent_of(s).name != "write_rows"))
    out["trace.spans"] = len(spans)
    return out
