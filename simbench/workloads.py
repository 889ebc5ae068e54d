"""The benchmark's four traffic mixes.

Each workload is an open loop on the simulated clock: arrivals come from a
seeded generator, and the simulator receives only the generated
:class:`~repro.serving.Workload`.  Every seed the program uses (workload,
tenant assignment, speculative acceptance sampler) derives from the one
``--seed`` the benchmark is given.

``build`` constructs fresh engines every time it is called, so each run
starts with cold cost-model caches, as every user run does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.gpu import A100, L40S
from repro.model import get_config
from repro.serving import (
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    AutoscalerConfig,
    ClusterEngine,
    MultiplexConfig,
    SchedulingConfig,
    ServingEngine,
    SpeculativeConfig,
    Workload,
    make_chat_workload,
    make_flash_crowd_workload,
    make_lognormal_workload,
    make_multi_model_workload,
)

__all__ = ["WorkloadSpec", "WORKLOADS"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic mix: how to generate it, what serves it, its SLO."""

    name: str
    why: str
    #: Requests (or chat sessions) per trace at full size; tests pass a
    #: smaller size.
    size: int
    #: Independent traces a run serves, each seeded from ``--seed``.  The
    #: simulated metrics pool their requests, which damps seed-to-seed spread.
    traces: int
    generate: Callable[[int, int], Workload]      # (size, seed) -> workload
    build: Callable[[], object]                   # () -> engine or cluster
    serve: Callable[[object, Workload, int], object]  # (system, wl, seed)
    ttft_slo_s: float
    tpot_slo_s: float
    #: Why the SLO limits sit where they do.
    slo_reason: str


# -- decode-backlog ------------------------------------------------------
def _backlog_generate(size: int, seed: int) -> Workload:
    return make_lognormal_workload(size, arrival_rate=200.0, seed=seed)


def _backlog_build() -> ServingEngine:
    return ServingEngine(get_config("llama-2-7b"), A100,
                         SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                         max_seq_len=4096)


def _backlog_serve(engine: ServingEngine, workload: Workload, seed: int):
    # No sequence cap: the batch grows until the KV pool is full, so
    # optimistic admission runs into page pressure and preempts.
    return engine.serve(workload,
                        scheduling=SCHEDULING_PRESETS["chunked-preempt"])


# -- chat-prefix-disagg --------------------------------------------------
_CHAT_TURNS = 6
_CHAT_SCHEDULING = SchedulingConfig(policy="cache-aware", chunked_prefill=True,
                                    prefix_caching=True, preemption=True,
                                    kv_demotion=True)


def _chat_generate(size: int, seed: int) -> Workload:
    return make_chat_workload(num_sessions=size,
                              turns_per_session=_CHAT_TURNS,
                              session_rate=3.0, think_time_s=6.0, seed=seed)


def _chat_build() -> ClusterEngine:
    # FP16 KV on a 48 GB GPU keeps the page pool small enough that the
    # chat histories overflow it: demotion and eviction both run.
    return ClusterEngine(get_config("llama-2-13b"), L40S,
                         SYSTEM_PRESETS["trt-fp16"], num_replicas=4,
                         roles=["prefill", "prefill", "decode", "decode"],
                         max_seq_len=4096)


def _chat_serve(cluster: ClusterEngine, workload: Workload, seed: int):
    spec = SpeculativeConfig(draft_model=get_config("llama-160m"),
                             profile="chat", lookahead=4, adaptive=True,
                             seed=seed + 1)
    return cluster.serve(workload, router="prefix-affinity", max_num_seqs=64,
                         scheduling=_CHAT_SCHEDULING, speculative=spec)


# -- flash-crowd-autoscale -----------------------------------------------
def _flash_generate(size: int, seed: int) -> Workload:
    # Base traffic fits one replica; the 6x crowd from t=60 s to t=90 s
    # needs the whole pool.
    return make_flash_crowd_workload(size, base_rate=6.0,
                                     spikes=((60.0, 30.0, 6.0),),
                                     tenants=4, seed=seed)


def _flash_build() -> ClusterEngine:
    return ClusterEngine(get_config("llama-2-7b"), A100,
                         SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                         num_replicas=4, max_seq_len=4096)


_FLASH_AUTOSCALER = AutoscalerConfig(
    min_replicas=1, max_replicas=4, interval_s=2.0, scale_up_queue_depth=2.0,
    up_cooldown_s=2.0, down_cooldown_s=4.0, scale_down_outstanding=6.0,
    ttft_slo_s=0.5)


def _flash_serve(cluster: ClusterEngine, workload: Workload, seed: int):
    return cluster.serve(workload, router="least-outstanding",
                         max_num_seqs=16,
                         scheduling=SCHEDULING_PRESETS["tiered-shed"],
                         telemetry=True, autoscaler=_FLASH_AUTOSCALER)


# -- multi-model-swap ----------------------------------------------------
_MODELS = ("llama-2-7b", "llama-2-13b")


def _swap_generate(size: int, seed: int) -> Workload:
    return make_multi_model_workload(size, models=_MODELS,
                                     weights=(0.85, 0.15), arrival_rate=30.0,
                                     prompt_len=256, output_len=64, seed=seed)


def _swap_build() -> ClusterEngine:
    return ClusterEngine(get_config(_MODELS[0]), A100,
                         SYSTEM_PRESETS["trt-fp16"], num_replicas=4,
                         max_seq_len=2048)


def _swap_serve(cluster: ClusterEngine, workload: Workload, seed: int):
    multiplex = MultiplexConfig(
        models=tuple(get_config(name) for name in _MODELS),
        max_resident_models=1)
    return cluster.serve(workload, router="model-aware", max_num_seqs=16,
                         scheduling=SCHEDULING_PRESETS["chunked"],
                         multiplex=multiplex)


WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec(
        name="decode-backlog",
        why="one overloaded replica under chunked-preempt: admission, decode "
            "page claims, planning, cost model and decode accounting",
        size=1200, traces=5, generate=_backlog_generate, build=_backlog_build,
        serve=_backlog_serve, ttft_slo_s=10.0, tpot_slo_s=0.1,
        slo_reason="the replica is overloaded on purpose, so TTFT grows with "
                   "the backlog; 10 s splits the trace so a change in "
                   "backlog growth moves the share"),
    WorkloadSpec(
        name="chat-prefix-disagg",
        why="multi-turn chat on a prefill/decode fleet whose KV working set "
            "overflows the prefix cache: sharing, demotion, eviction, "
            "adoption and speculative steps",
        size=100, traces=4, generate=_chat_generate, build=_chat_build,
        serve=_chat_serve, ttft_slo_s=0.5, tpot_slo_s=0.03,
        slo_reason="interactive chat: half a second to first token and "
                   "30 ms per token, about 1.3x the unloaded 13B FP16 TPOT "
                   "on an L40S"),
    WorkloadSpec(
        name="flash-crowd-autoscale",
        why="a 6x paid/free flash crowd on an autoscaled pool under "
            "tiered-shed with telemetry on: scaling, cold starts, drains",
        size=2500, traces=6, generate=_flash_generate, build=_flash_build,
        serve=_flash_serve, ttft_slo_s=0.5, tpot_slo_s=0.01,
        slo_reason="the autoscaler's own TTFT target (0.5 s) and about 2x "
                   "the unloaded W4A8KV4 7B TPOT on an A100"),
    WorkloadSpec(
        name="multi-model-swap",
        why="an 85/15 7B/13B mix on a multiplexed 4-replica fleet: "
            "residency, priced swap-ins and per-replica serialization",
        size=3000, traces=8, generate=_swap_generate, build=_swap_build,
        serve=_swap_serve, ttft_slo_s=0.5, tpot_slo_s=0.03,
        slo_reason="loaded but unsaturated fleet; 0.5 s TTFT leaves room "
                   "for a swap-in's weight transfer only when it is rare"),
)}
