#!/usr/bin/env python3
"""The serving simulator's benchmark: one command, four traffic mixes.

Run from the repository root::

    python3 simbench/run.py --workload decode-backlog --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` serves the workload untraced, repeatedly, for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced runs of the same inputs and reports the per-layer metrics; the traced
run's spans are also written as a Chrome trace to
``.simbench-out/<workload>-seed<seed>.trace.json``.  Both modes check the
program's outputs; a failed check prints ``"correct": false`` and exits 1.
The last line of standard output is one JSON object.

``python3 simbench/run.py --write-spec`` rewrites ``BENCHMARK.json`` from the
metric tables below.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (name, unit, better, bound) of every end-to-end metric.  Host metrics
#: are timed with tracing off; ``sim_*`` and ``served_frac`` are simulated
#: and deterministic for a given seed.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("requests_per_s", "req/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("sim_output_tok_per_s", "tok/s", "higher", 0.25),
    ("sim_ttft_p50_s", "s", "lower", 0.2),
    ("sim_ttft_p99_s", "s", "lower", 0.25),
    ("sim_tpot_p50_s", "s", "lower", 0.05),
    ("sim_tpot_p99_s", "s", "lower", 0.1),
    ("sim_slo_attainment", "fraction", "higher", 0.2),
    ("sim_gpu_seconds", "GPU-s", "lower", 0.25),
    ("served_frac", "fraction", "higher", 0.05),
]

_SPAN_METRICS = [
    ("cluster.loop.calls", "count"), ("cluster.loop.self_s", "s"),
    ("router.calls", "count"), ("router.self_s", "s"),
    ("engine.step.calls", "count"), ("engine.step.self_s", "s"),
    ("scheduler.admit.calls", "count"), ("scheduler.admit.self_s", "s"),
    ("scheduler.prepare_decode.calls", "count"),
    ("scheduler.prepare_decode.self_s", "s"),
    ("scheduler.record.calls", "count"), ("scheduler.record.self_s", "s"),
    ("policies.plan.calls", "count"), ("policies.plan.self_s", "s"),
    ("engine.cost.calls", "count"), ("engine.cost.self_s", "s"),
    ("kv_cache_manager.calls", "count"), ("kv_cache_manager.self_s", "s"),
    ("prefix_cache.calls", "count"), ("prefix_cache.self_s", "s"),
    ("speculative.calls", "count"), ("speculative.self_s", "s"),
    ("autoscaler.calls", "count"), ("autoscaler.self_s", "s"),
    ("multiplex.calls", "count"), ("multiplex.self_s", "s"),
    ("telemetry.calls", "count"), ("telemetry.self_s", "s"),
    ("metrics.calls", "count"), ("metrics.self_s", "s"),
]

#: (name, unit, better) of every per-layer metric, from the traced run.
PER_LAYER: List[Tuple[str, str, str]] = [
    (name, unit, "lower") for name, unit in _SPAN_METRICS] + [
    ("cluster.migrations", "count", "lower"),
    ("cluster.transfer_delay_p99_s", "s", "lower"),
    ("engine.iterations", "count", "lower"),
    ("engine.tokens_per_iteration", "tok", "higher"),
    ("engine.cost_cache_hit_rate", "fraction", "higher"),
    ("scheduler.admission_scanned", "count", "lower"),
    ("scheduler.admission_fast_skips", "count", "higher"),
    ("scheduler.preemptions", "count", "lower"),
    ("scheduler.recomputed_prefill_tokens", "tok", "lower"),
    ("scheduler.dropped", "count", "lower"),
    ("scheduler.queue_delay_p50_s", "s", "lower"),
    ("scheduler.queue_delay_p99_s", "s", "lower"),
    ("kv_cache_manager.pages_allocated", "count", "lower"),
    ("kv_cache_manager.utilization_peak", "fraction", "higher"),
    ("prefix_cache.hit_rate", "fraction", "higher"),
    ("prefix_cache.evicted_pages", "count", "lower"),
    ("prefix_cache.demoted_pages", "count", "lower"),
    ("speculative.acceptance_rate", "fraction", "higher"),
    ("autoscaler.scale_ups", "count", "lower"),
    ("autoscaler.scale_downs", "count", "lower"),
    ("autoscaler.peak_replicas", "count", "lower"),
    ("multiplex.swap_ins", "count", "lower"),
    ("setup.workload_s", "s", "lower"),
    ("setup.engine_s", "s", "lower"),
    ("gpu.gemm_s", "s", "lower"),
    ("gpu.attention_s", "s", "lower"),
    ("gpu.other_s", "s", "lower"),
    ("gpu.comm_s", "s", "lower"),
    ("gpu.kv_reprice_s", "s", "lower"),
    ("gpu.swap_s", "s", "lower"),
    ("gpu.busy_share", "fraction", "higher"),
    ("gpu.ledger_residual_s", "s", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.calibration_s", "s", "lower"),
]

#: Seconds of wall time each run measures unless ``--seconds`` says else.
RUN_SECONDS = 30
#: Least set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Statement that times the program's import in a fresh interpreter, in
#: CPU seconds at reference speed.
_IMPORT_PROBE = ("import sys; sys.path[:0] = [{root!r}, {src!r}]; "
                 "from simbench.hostspeed import host_clock, reference_s, "
                 "scaled; before = reference_s(); t0 = host_clock(); "
                 "import simbench.workloads; seconds = host_clock() - t0; "
                 "print(scaled(seconds, before, reference_s()))")
#: Relative float tolerance between a stepper's ``busy_s`` and its ledger.
#: Both sum the same latencies, in a different order and grouping.
LEDGER_REL_TOL = 1e-9


def benchmark_spec() -> Dict:
    """The contents of ``BENCHMARK.json``."""
    from simbench.workloads import WORKLOADS
    return {
        "command": ["python3", "simbench/run.py"],
        "paths": ["simbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def calibrate() -> float:
    """Wall seconds a fixed pure-Python kernel takes here (best of three).

    Reported so that a slow or contended machine shows as such.  No metric
    is divided by it: host times are scaled by the reference kernel of
    ``simbench.hostspeed``, read around each timed piece of work.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def import_seconds(first: float) -> float:
    """Median CPU seconds, at reference speed, of importing the program.

    ``first`` is this process's own import; the others are timed in fresh
    interpreters, one after another, so that ``setup_s`` is a median of
    ``SETUP_REPEATS`` set-ups like its other parts.
    """
    probe = _IMPORT_PROBE.format(root=ROOT, src=os.path.join(ROOT, "src"))
    seconds = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        seconds.append(float(out.stdout))
    return statistics.median(seconds)


class Failures(list):
    """Output-check failures collected over a run."""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _serve(spec, base, seed: int, traced: bool):
    """One fresh serving run: build engines, serve a pristine copy.

    Returns ``(result, workload, serve CPU seconds at reference speed,
    serve CPU seconds, tracer or None)``.
    """
    from simbench.hostspeed import host_clock, reference_s, scaled
    from simbench.tracing import LayerTracer
    workload = base.copy_fresh()
    gc.collect()
    with (LayerTracer() if traced else contextlib.nullcontext()) as tracer:
        system = spec.build()
        before = reference_s()
        t0 = host_clock()
        result = spec.serve(system, workload, seed)
        seconds = host_clock() - t0
        after = reference_s()
    return (result, workload, scaled(seconds, before, after), seconds,
            tracer)


def layer_metrics(result, tracer, span_stats: Dict[str, Tuple[int, float]]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced run."""
    from repro.serving import ClusterResult
    from simbench.results import gpu_seconds, replica_results
    replicas = replica_results(result)
    counters = (result.counters() if isinstance(result, ClusterResult)
                else result.counters)
    metrics = result.metrics
    out: Dict[str, float] = {}
    for name, (calls, self_s) in span_stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    iterations = sum(r.num_iterations for r in replicas)
    autoscale = getattr(result, "autoscale", None)
    out.update({
        "cluster.migrations": getattr(result, "num_migrations", 0),
        "cluster.transfer_delay_p99_s": metrics.transfer_delay.p99,
        "engine.iterations": iterations,
        "engine.tokens_per_iteration": (result.generated_tokens / iterations
                                        if iterations else 0.0),
        "engine.cost_cache_hit_rate": tracer.cost_cache_hit_rate(),
        "scheduler.admission_scanned":
            counters.get("scheduler_admission_scanned_requests_total"),
        "scheduler.admission_fast_skips":
            counters.get("scheduler_admission_fast_skips_total"),
        "scheduler.preemptions": counters.get("scheduler_preemptions_total"),
        "scheduler.recomputed_prefill_tokens":
            counters.get("scheduler_recomputed_prefill_tokens_total"),
        "scheduler.dropped": result.num_dropped,
        "scheduler.queue_delay_p50_s": metrics.queue_delay.p50,
        "scheduler.queue_delay_p99_s": metrics.queue_delay.p99,
        "kv_cache_manager.pages_allocated":
            counters.get("kv_pages_allocated_total"),
        "kv_cache_manager.utilization_peak":
            max(r.kv_utilization_peak for r in replicas),
        "prefix_cache.hit_rate": result.cache_hit_rate,
        "prefix_cache.evicted_pages":
            counters.get("prefix_evicted_pages_total"),
        "prefix_cache.demoted_pages":
            counters.get("prefix_demoted_pages_total"),
        "speculative.acceptance_rate": result.acceptance_rate,
        "autoscaler.scale_ups":
            0 if autoscale is None else autoscale.num_scale_ups,
        "autoscaler.scale_downs":
            0 if autoscale is None else autoscale.num_scale_downs,
        "autoscaler.peak_replicas":
            0 if autoscale is None else autoscale.peak_replicas,
        "multiplex.swap_ins": counters.get("multiplex_swap_ins_total"),
    })
    ledger = tracer.ledger_totals()
    for part, seconds in ledger.items():
        out[f"gpu.{part}_s"] = seconds
    busy = tracer.busy_seconds()
    out["gpu.busy_share"] = busy / gpu_seconds(result)
    out["gpu.ledger_residual_s"] = busy - sum(ledger.values())
    return out


def trace_seed(seed: int, trace: int) -> int:
    """Seed of a run's ``trace``-th trace; distinct for every (seed, trace)."""
    return seed * 100 + trace


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        import_s: float, out_dir: str = None, size: int = None,
        traces: int = None, log=print) -> Dict:
    """Run one benchmark invocation; returns the result object to print.

    Untraced (``trace=False``), the run serves its traces in turn, each on
    fresh engines, until ``seconds`` have passed and every trace has been
    served, the first one twice.  Traced, it alternates an untraced and a
    traced serve of the first trace.  ``size`` and ``traces`` override the
    workload's own (the tests run tiny workloads).
    """
    from simbench.results import (
        TraceOutcome,
        output_checks,
        request_digest,
        sim_metrics,
    )
    from simbench.hostspeed import host_clock, reference_s, scaled
    from simbench.tracing import SPANS
    from simbench.workloads import WORKLOADS

    spec = WORKLOADS[workload_name]
    size = spec.size if size is None else size
    traces = spec.traces if traces is None else traces
    calibration_s = calibrate()
    log(f"# {workload_name} seed={seed} size={size} traces={traces} "
        f"trace={int(trace)} calibration={calibration_s:.4f}s")

    # Set-up, at least SETUP_REPEATS times: workload generation and engine
    # construction.  The first workload generated for each trace is served.
    gen_times, build_times, bases = [], [], []
    before = reference_s()
    for k in range(max(SETUP_REPEATS, traces)):
        t0 = host_clock()
        workload = spec.generate(size, trace_seed(seed, k % traces))
        t1 = host_clock()
        spec.build()
        build_times.append(host_clock() - t1)
        gen_times.append(t1 - t0)
        if k < traces:
            bases.append(workload)
    after = reference_s()
    setup = {"setup.workload_s": scaled(statistics.median(gen_times),
                                        before, after),
             "setup.engine_s": scaled(statistics.median(build_times),
                                      before, after)}
    setup_s = import_s + setup["setup.workload_s"] + setup["setup.engine_s"]

    failures = Failures()
    digests: Dict[int, str] = {}
    outcomes: Dict[int, TraceOutcome] = {}
    #: Untraced serves' CPU seconds at reference speed, by trace.
    times: Dict[int, List[float]] = {}
    #: Unscaled CPU seconds of every serve, by traced or not and by trace.
    raw: Dict[bool, Dict[int, List[float]]] = {False: {}, True: {}}
    traced_self_s: List[Dict[str, float]] = []
    last_traced = None
    attempted = failed = served = 0
    min_serves = 1 if trace else traces + 1
    started = time.perf_counter()
    while True:
        k = 0 if trace else served % traces
        base = bases[k]
        for traced_run in ((False, True) if trace else (False,)):
            result, workload, seconds_, raw_s, tracer = _serve(
                spec, base, trace_seed(seed, k), traced_run)
            raw[traced_run].setdefault(k, []).append(raw_s)
            sent = len(workload.requests)
            attempted += sent
            failed += sent - result.num_finished
            failures.extend(output_checks(result, workload))
            digest = request_digest(workload)
            failures.check(digests.setdefault(k, digest) == digest,
                           f"trace {k}: simulated timestamps differ between "
                           f"runs of one seed "
                           f"({'traced' if traced_run else 'untraced'})")
            outcome = TraceOutcome.of(result, workload)
            failures.check(outcomes.setdefault(k, outcome) == outcome,
                           f"trace {k}: simulated results differ between runs")
            if traced_run:
                traced_self_s.append({name: stats[1] for name, stats
                                      in tracer.stats.items()})
                last_traced = (result, tracer)
                failures.extend(tracer.ledger_mismatches(LEDGER_REL_TOL))
            else:
                times.setdefault(k, []).append(seconds_)
                log(f"  trace {k}: {result.num_finished}/{sent} finished in "
                    f"{raw_s:.3f} CPU-s, {seconds_:.3f} at reference speed")
        served += 1
        elapsed = time.perf_counter() - started
        if served >= min_serves and elapsed * (served + 1) / served > seconds:
            break

    finished = sum(o.finished for o in outcomes.values())
    log(f"  p99 samples: {finished} finished requests over "
        f"{len(outcomes)} trace(s), {finished // 100} beyond p99")
    if not trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        unscaled_s = sum(statistics.median(t) for t in raw[False].values())
        log(f"  unscaled: {finished / unscaled_s:.1f} req/s")
        scaled_s = sum(statistics.median(t) for t in times.values())
        metrics = {"requests_per_s": finished / scaled_s,
                   "setup_s": setup_s,
                   "peak_rss_mb": rss_kb / 1024.0}
        metrics.update(sim_metrics([outcomes[k] for k in sorted(outcomes)],
                                   spec.ttft_slo_s, spec.tpot_slo_s))
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        result, tracer = last_traced
        span_stats = {name: (tracer.stats[name][0],
                             statistics.median(s[name] for s in traced_self_s))
                      for name in SPANS}
        metrics = layer_metrics(result, tracer, span_stats)
        metrics.update(setup)
        # Traced and untraced serves alternate, so their unscaled times
        # compare directly; scaling would only add the readings' noise.
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(raw[True][0])
            / statistics.median(raw[False][0]) - 1.0)
        metrics["bench.calibration_s"] = calibration_s
        units = {n: u for n, u, _ in PER_LAYER}
        traced_s = statistics.median(raw[True][0])
        log(f"  self time by layer (traced serve {traced_s:.3f}s):")
        for name, (calls, self_s) in sorted(span_stats.items(),
                                            key=lambda kv: -kv[1][1]):
            log(f"    {name:26s} {calls:>9d} calls {self_s:9.4f}s "
                f"{100.0 * self_s / traced_s:5.1f}%")
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir,
                                f"{workload_name}-seed{seed}.trace.json")
            tracer.write_chrome_trace(path)
            log(f"  chrome trace: {path}")

    for name, unit in units.items():
        log(f"  {name:36s} {metrics[name]:.6g} {unit}")
    for failure in failures:
        log(f"  CHECK FAILED: {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from simbench.hostspeed import host_clock, reference_s, scaled
    before = reference_s()
    t0 = host_clock()
    import simbench.workloads  # noqa: F401  (imports the program)
    import_s = scaled(host_clock() - t0, before, reference_s())

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(benchmark_spec(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload not in simbench.workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(simbench.workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 import_seconds(import_s),
                 out_dir=os.path.join(ROOT, ".simbench-out"))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
