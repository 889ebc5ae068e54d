"""Per-layer tracing of the serving simulator, from outside the program.

:class:`LayerTracer` wraps the public methods of ``repro.serving`` classes
for the duration of one traced run and puts every original back afterwards.
Each call becomes a span (name, start, end, the span that caused it, and for
routing decisions the request id).  Self time is a span's duration minus the
time its child spans cover.  Spans stay in memory and are written once, at
the end, as a Chrome trace-event file.

The wrappers only observe: they pass arguments and results through
untouched, so a traced run simulates exactly the schedule of an untraced
one (the benchmark checks this with a digest of every request's simulated
timestamps).

The same wrappers keep the simulated-time ledger: the ``StepBreakdown`` of
every outermost cost-model call made inside ``EngineStepper.step``, the KV
re-pricing passes charged inside a step, and the weight swap-ins charged
with ``EngineStepper.charge_busy``, summed per stepper so they can be
compared against that stepper's ``busy_s``.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.serving.engine as engine_module
from repro.serving import (
    ROUTERS,
    ClusterEngine,
    ContinuousBatchingScheduler,
    EngineStepper,
    ModelResidency,
    PagedKVCacheManager,
    PrefixCache,
    ReactiveAutoscaler,
    ServingEngine,
    ServingMetrics,
    SpeculativeDecoder,
    StepBreakdown,
    Tracer,
)
from repro.serving.policies import ChunkedPrefillPlanner, StallPrefillPlanner

__all__ = ["SPANS", "LEDGER_PARTS", "LayerTracer", "wrapped_targets"]

#: Cost-model entry points; only the outermost call of a nest is a span.
_COST_METHODS = ("decode_step", "prefill", "mixed_step",
                 "speculative_verify_step", "kv_dequant_latency",
                 "kv_transcode_latency")

#: Span name -> [(class, method names)].  Span names are the per-layer
#: metric prefixes (``<span>.calls``, ``<span>.self_s``).
SPANS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "cluster.loop": [(ClusterEngine, ("serve", "transfer_delay"))],
    "router": [(cls, tuple(name for name in ("route", "route_decode")
                           if name in cls.__dict__))
               for cls in ROUTERS.values()],
    "engine.step": [(EngineStepper, ("step",))],
    "scheduler.admit": [(ContinuousBatchingScheduler, ("admit",))],
    "scheduler.prepare_decode": [(ContinuousBatchingScheduler,
                                  ("prepare_decode",))],
    "scheduler.record": [(ContinuousBatchingScheduler,
                          ("record_decode_step", "record_prefill",
                           "complete_prefill"))],
    "policies.plan": [(StallPrefillPlanner, ("plan",)),
                      (ChunkedPrefillPlanner, ("plan",))],
    "engine.cost": [(ServingEngine, _COST_METHODS)],
    "kv_cache_manager": [(PagedKVCacheManager,
                          ("allocate", "adopt", "trim", "free"))],
    "prefix_cache": [(PrefixCache, ("match", "lookup_tokens", "acquire",
                                    "insert", "release", "evict"))],
    "speculative": [(SpeculativeDecoder, ("run_iteration",))],
    "autoscaler": [(ReactiveAutoscaler, ("decide", "commit"))],
    "multiplex": [(ModelResidency, ("ensure_resident", "swap_cost_s"))],
    "telemetry": [(Tracer, tuple(
        name for name, value in Tracer.__dict__.items()
        if not name.startswith("_") and callable(value)))],
    "metrics": [(ServingMetrics, ("from_requests", "ttft", "tpot", "e2e",
                                  "queue_delay", "slo_attainment")),
                (EngineStepper, ("result",))],
}

#: Simulated-seconds ledger categories (``gpu.<part>_s``).
LEDGER_PARTS = ("gemm", "attention", "other", "comm", "kv_reprice", "swap")

#: Chrome-trace spans kept in memory; later spans still count toward the
#: per-layer totals but are not written out.
MAX_TRACE_SPANS = 100_000


def wrapped_targets() -> List[Tuple[object, str]]:
    """Every (owner, attribute) a traced run replaces while it runs."""
    targets = [(cls, name) for spans in SPANS.values()
               for cls, names in spans for name in names]
    targets.append((EngineStepper, "charge_busy"))
    targets.append((engine_module, "collect_counters"))
    return targets


class LayerTracer:
    """Span recorder and simulated-time ledger for one traced run.

    Use as a context manager: the wrappers are installed on entry and the
    original attributes restored on exit, also when the run raises.
    """

    def __init__(self) -> None:
        #: span name -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {name: [0, 0.0] for name in SPANS}
        #: (name, start, end, span index, parent index, request id)
        self.spans: List[Tuple] = []
        #: id(stepper) -> (stepper, {part: simulated seconds})
        self.ledger: Dict[int, Tuple[EngineStepper, Dict[str, float]]] = {}
        #: Engines whose cost model was called (for the cache hit rate).
        self.engines: Dict[int, ServingEngine] = {}
        self._stack: List[list] = []
        self._next_index = 0
        self._cost_depth = 0
        self._stepper: Optional[EngineStepper] = None
        self._spec_target: Optional[ServingEngine] = None
        self._saved: List[Tuple[object, str, object]] = []
        self._t0 = 0.0

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self._t0 = time.perf_counter()
        for name, spans in SPANS.items():
            for cls, methods in spans:
                for method in methods:
                    self._patch(cls, method,
                                self._make_span(name, cls, method))
        self._patch(EngineStepper, "charge_busy", self._charge_busy_wrapper(
            EngineStepper.__dict__["charge_busy"]))
        original = engine_module.collect_counters
        self._patch(engine_module, "collect_counters",
                    self._wrap("telemetry", original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- wrappers --------------------------------------------------------
    def _make_span(self, name: str, cls: type, method: str):
        raw = cls.__dict__[method]
        if isinstance(raw, property):
            return property(self._wrap(name, raw.fget))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        if name == "engine.cost":
            return self._cost_wrapper(raw, method)
        if name == "engine.step":
            return self._step_wrapper(raw)
        if name == "speculative":
            return self._spec_wrapper(raw)
        return self._wrap(name, raw, with_request=(name == "router"))

    def _wrap(self, name: str, fn: Callable, with_request: bool = False):
        """A span around every call of ``fn``."""
        stack = self._stack
        stats = self.stats[name]
        spans = self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            index = self._next_index
            self._next_index = index + 1
            parent = stack[-1][2] if stack else -1
            frame = [perf(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index < MAX_TRACE_SPANS:
                    request = args[1].request_id if with_request else -1
                    spans.append((name, frame[0], end, index, parent,
                                  request))

        wrapper.__wrapped__ = fn
        return wrapper

    def _cost_wrapper(self, fn: Callable, method: str):
        span = self._wrap("engine.cost", fn)
        is_baseline = method == "decode_step"

        def wrapper(engine, *args, **kwargs):
            if self._cost_depth:
                return fn(engine, *args, **kwargs)  # nested: part of the outer
            self._cost_depth = 1
            try:
                value = span(engine, *args, **kwargs)
            finally:
                self._cost_depth = 0
            self.engines[id(engine)] = engine
            stepper = self._stepper
            # The speculative decoder prices a plain decode step of its
            # target after each iteration, for its speed-up gauge only; that
            # price is never charged to the GPU.
            if stepper is not None and not (
                    is_baseline and engine is self._spec_target):
                parts = self._parts(stepper)
                if isinstance(value, StepBreakdown):
                    parts["gemm"] += value.gemm
                    parts["attention"] += value.attention
                    parts["other"] += value.other
                    parts["comm"] += value.comm
                else:
                    parts["kv_reprice"] += value
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    def _step_wrapper(self, fn: Callable):
        span = self._wrap("engine.step", fn)

        def wrapper(stepper, *args, **kwargs):
            self._parts(stepper)
            self._stepper = stepper
            try:
                return span(stepper, *args, **kwargs)
            finally:
                self._stepper = None

        wrapper.__wrapped__ = fn
        return wrapper

    def _spec_wrapper(self, fn: Callable):
        span = self._wrap("speculative", fn)

        def wrapper(decoder, *args, **kwargs):
            self._spec_target = decoder.target
            try:
                return span(decoder, *args, **kwargs)
            finally:
                self._spec_target = None

        wrapper.__wrapped__ = fn
        return wrapper

    def _charge_busy_wrapper(self, fn: Callable):
        def wrapper(stepper, seconds):
            self._parts(stepper)["swap"] += seconds
            return fn(stepper, seconds)

        wrapper.__wrapped__ = fn
        return wrapper

    def _parts(self, stepper: EngineStepper) -> Dict[str, float]:
        entry = self.ledger.get(id(stepper))
        if entry is None:
            entry = (stepper, dict.fromkeys(LEDGER_PARTS, 0.0))
            self.ledger[id(stepper)] = entry
        return entry[1]

    # -- results ---------------------------------------------------------
    def ledger_totals(self) -> Dict[str, float]:
        """Simulated seconds per ledger part, summed over all steppers."""
        totals = dict.fromkeys(LEDGER_PARTS, 0.0)
        for _, parts in self.ledger.values():
            for part, seconds in parts.items():
                totals[part] += seconds
        return totals

    def ledger_mismatches(self, rel_tol: float) -> List[str]:
        """Steppers whose ledger differs from ``busy_s`` beyond ``rel_tol``."""
        failures = []
        for stepper, parts in self.ledger.values():
            seen = sum(parts.values())
            if abs(stepper.busy_s - seen) > rel_tol * max(1.0, stepper.busy_s):
                failures.append(f"stepper busy_s {stepper.busy_s!r} != ledger "
                                f"{seen!r}")
        return failures

    def busy_seconds(self) -> float:
        return sum(stepper.busy_s for stepper, _ in self.ledger.values())

    def cost_cache_hit_rate(self) -> float:
        hits = sum(e.cost_cache.hits for e in self.engines.values())
        misses = sum(e.cost_cache.misses for e in self.engines.values())
        return 0.0 if hits + misses == 0 else hits / (hits + misses)

    def chrome_trace(self) -> Dict:
        """The recorded spans as a Chrome trace-event (Perfetto) document."""
        t0 = self._t0
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                   "pid": 1, "tid": 1,
                   "args": ({"span": index, "parent": parent}
                            if request < 0 else
                            {"span": index, "parent": parent,
                             "request": request})}
                  for name, start, end, index, parent, request in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans_recorded": self._next_index,
                              "spans_written": len(events)}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
