"""Simulated end-to-end metrics and output checks of one serving run.

Everything here reads the program's public results (``ServingResult`` /
``ClusterResult``, their counter registries and the served requests); none
of it depends on host timing, so a simulator-speed change must leave every
value bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.serving import (
    ClusterResult,
    RequestMetrics,
    RequestState,
    ServingMetrics,
    ServingResult,
    Workload,
)

__all__ = ["TraceOutcome", "sim_metrics", "request_digest", "output_checks",
           "replica_results", "gpu_seconds"]


def replica_results(result) -> List[ServingResult]:
    """Per-replica (per-stepper) results of a single-engine or fleet run."""
    if isinstance(result, ClusterResult):
        return list(result.replica_results)
    return [result]


def gpu_seconds(result) -> float:
    """Provisioned GPU-seconds; a single engine holds its GPUs for the run."""
    if isinstance(result, ClusterResult):
        return result.gpu_seconds
    return result.total_time_s


@dataclass(frozen=True)
class TraceOutcome:
    """What one served trace contributes to the simulated metrics."""

    sent: int
    finished: int
    generated_tokens: int
    makespan_s: float
    gpu_seconds: float
    requests: Tuple[RequestMetrics, ...] = field(compare=False)

    @classmethod
    def of(cls, result, workload: Workload) -> "TraceOutcome":
        return cls(sent=len(workload.requests), finished=result.num_finished,
                   generated_tokens=result.generated_tokens,
                   makespan_s=result.total_time_s,
                   gpu_seconds=gpu_seconds(result),
                   requests=tuple(result.metrics.requests))


def sim_metrics(outcomes: Sequence[TraceOutcome], ttft_slo_s: float,
                tpot_slo_s: float) -> Dict[str, float]:
    """The simulated end-to-end metrics of a run's traces, pooled.

    Percentiles and SLO attainment are taken over every request of every
    trace; throughput is total tokens over total makespan; GPU-seconds are
    the mean per trace.
    """
    sent = sum(o.sent for o in outcomes)
    metrics = ServingMetrics(
        requests=[m for o in outcomes for m in o.requests])
    met = metrics.slo_attainment(ttft_slo_s, tpot_slo_s) * len(metrics)
    return {
        "sim_output_tok_per_s": (sum(o.generated_tokens for o in outcomes)
                                 / sum(o.makespan_s for o in outcomes)),
        "sim_ttft_p50_s": metrics.ttft.p50,
        "sim_ttft_p99_s": metrics.ttft.p99,
        "sim_tpot_p50_s": metrics.tpot.p50,
        "sim_tpot_p99_s": metrics.tpot.p99,
        # Share of requests *sent*: unserved and dropped requests miss.
        "sim_slo_attainment": met / sent,
        "sim_gpu_seconds": (sum(o.gpu_seconds for o in outcomes)
                            / len(outcomes)),
        "served_frac": sum(o.finished for o in outcomes) / sent,
    }


_TIMESTAMPS = ("arrival_time", "admitted_time", "prefill_done_time",
               "first_token_time", "finish_time", "drop_time",
               "migration_ready_time")


def request_digest(workload: Workload) -> str:
    """SHA-256 over every request's simulated timestamps and progress.

    Floats enter as ``float.hex`` so two runs agree only when every bit of
    every timestamp does.
    """
    h = hashlib.sha256()
    for r in sorted(workload.requests, key=lambda r: r.request_id):
        fields = [str(r.request_id), r.state.value, str(r.generated),
                  str(r.preemptions), str(r.migrations)]
        for name in _TIMESTAMPS:
            value = getattr(r, name)
            fields.append("-" if value is None else float(value).hex())
        h.update(("|".join(fields) + "\n").encode())
    return h.hexdigest()


def output_checks(result, workload: Workload) -> List[str]:
    """Correctness checks on one run; returns the failures (empty = pass).

    * every request sent is finished, unserved or dropped, exactly once;
    * KV pages are conserved on every replica: pages allocated equal pages
      freed plus pages still held by the replica's prefix cache, and no
      private page outlives its request.
    """
    failures: List[str] = []
    sent = len(workload.requests)
    finished = dropped = unserved = 0
    for r in workload.requests:
        if r.state is RequestState.FINISHED:
            finished += 1
            if r.finish_time is None or r.generated != r.output_len:
                failures.append(f"request {r.request_id} finished with "
                                f"{r.generated}/{r.output_len} tokens")
        elif r.state is RequestState.DROPPED:
            dropped += 1
        else:
            unserved += 1
    if (finished, dropped, unserved + dropped) != (
            result.num_finished, result.num_dropped, result.num_unserved):
        failures.append(
            f"requests by final state (finished {finished}, dropped "
            f"{dropped}, unserved {unserved}) disagree with the result "
            f"({result.num_finished}, {result.num_dropped}, "
            f"{result.num_unserved - result.num_dropped})")
    if finished + unserved + dropped != sent:
        failures.append(f"finished {finished} + unserved {unserved} + "
                        f"dropped {dropped} != sent {sent}")
    for i, replica in enumerate(replica_results(result)):
        c = replica.counters
        allocated = c.get("kv_pages_allocated_total")
        freed = c.get("kv_pages_freed_total")
        held = c.get("kv_shared_pages")
        if allocated != freed + held:
            failures.append(f"replica {i}: KV pages allocated {allocated} != "
                            f"freed {freed} + held by prefix cache {held}")
    return failures
