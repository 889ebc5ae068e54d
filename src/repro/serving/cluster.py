"""Multi-replica cluster simulator: routers + aggregated serving results.

One :class:`repro.serving.engine.ServingEngine` models a single model
replica (possibly tensor-parallel across several GPUs).  Production
deployments run many such replicas behind a load balancer; this module
simulates that tier.  :class:`ClusterEngine` drives N replicas against one
shared clock in a single event loop, whatever the fleet: static,
disaggregated, autoscaled or multiplexed.  Each replica is an
:class:`~repro.serving.engine.EngineStepper` or a multi-model host of
several, and the loop only submits requests and runs replicas up to an
instant.  It takes three kinds of event in time order, ties broken
handoff, then arrival, then autoscaler tick, and advances every live
replica to the event's instant first, so the pluggable :class:`Router` (and
the autoscaler) see the queue state *at that moment* — exactly the
information a real load balancer has.  A *handoff* migrates a finished
prefill to a decode replica, an *arrival* is routed among the active,
prefill-capable replicas, and a *tick* lets the autoscaler provision a
replica (cold starts activate when an advance passes their ready time) or
drain one.  Each pass first runs the prefill-role replicas up to the next
arrival or tick: they are the only source of handoffs and take input only
from arrivals, so every earlier handoff is known before anything is routed,
and each is routed at its own instant.  After the last arrival a static,
multiplexed or disaggregated fleet runs dry; an autoscaled fleet ticks
until nothing is starting and no active replica has a
:meth:`~repro.serving.engine.EngineStepper.next_ready_time`.  Each replica
answers "when can I next act?" once, there: an idle replica waiting on a
later availability (an in-flight KV transfer, a tier promotion) is never
run past an event the loop has yet to deliver.

Routers shipped by default:

* ``round-robin`` — cyclic assignment, blind to load.  The baseline every
  cluster study compares against.
* ``least-outstanding`` — the replica with the fewest unfinished requests;
  the classic least-outstanding-requests (LOR) balancer.
* ``shortest-queue`` — the replica owing the fewest pending prefill tokens,
  a length-aware refinement of LOR for LLM serving where a single 3k-token
  prompt costs far more than several short ones.
* ``prefix-affinity`` — cache-locality routing for prefix-cached clusters:
  probe every replica's prefix cache for the request's prompt and prefer the
  warmest one (load-penalized), keeping same-prefix sessions on the replica
  that already holds their KV blocks; cold requests stick by session so a
  conversation lands on one replica from its first turn.
* ``disaggregated`` — the prefill/decode split's router: arrivals go to the
  prefill-capable replica owing the fewest pending prefill tokens, and on
  prefill completion the request migrates to the least-loaded decode
  replica.
* ``precision-aware`` — the heterogeneous fleet's router: quality-floored
  and short interactive requests go to the highest-precision replica group,
  throughput traffic to the lowest-precision (cheapest) group,
  least-outstanding within a group.  Degrades to least-outstanding on a
  homogeneous fleet.
* ``model-aware`` — the multiplexed fleet's router: prefer a replica where
  the request's model is already warm, falling back to the least-loaded
  replica worth warming by scoring every candidate
  ``swap_cost_s + queue_cost_s * outstanding``.  Degrades to
  least-outstanding on single-model fleets.

**Multiplexed serving** (``serve(..., multiplex=MultiplexConfig(...))``)
puts several models on every replica: a
:class:`~repro.serving.multiplex.ModelResidency` accounts each model's
weight + workspace footprint against HBM next to the statically carved
per-model KV pools, swaps weights LRU when the residency limit is hit, and
prices each swap-in like an autoscaler cold start — the weights cross the
host link as a replica-busy window on the shared clock.  Co-resident
models are serialized on one GPU timeline per replica; prefix caches are
namespaced by model so no block is ever adopted across models.

**Disaggregated serving** (DistServe/Splitwise-style) gives each replica a
*role*: ``prefill`` replicas run prompt processing only and export every
request the instant its prefill completes, ``decode`` replicas adopt the
transferred KV state and generate tokens, and ``mixed`` replicas (the
default) do both — a cluster of only mixed replicas is bitwise-identical to
the pre-disaggregation engine.  The handoff is priced by a KV-transfer cost
model: the prompt's KV bytes (minus whatever prefix the target replica
already caches) cross an :class:`~repro.gpu.specs.InterconnectSpec` link,
overlappable with the first decode iteration (layer-by-layer streaming), and
the exposed delay lands on the request's TTFT and is reported per request.

Per-replica :class:`~repro.serving.engine.ServingResult`s are aggregated
into a :class:`ClusterResult` with cluster-level throughput (makespan-based),
merged latency percentiles, SLO goodput and — for disaggregated runs —
per-role utilization, migration counts and transfer-delay percentiles.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.gpu.specs import GPUSpec, InterconnectSpec, NVLINK
from repro.model.config import ModelConfig
from repro.serving.autoscaler import (
    AutoscaleReport,
    AutoscalerConfig,
    FleetSnapshot,
    ReactiveAutoscaler,
    ScalingEvent,
)
from repro.serving.engine import EngineStepper, ServingEngine, ServingResult
from repro.serving.metrics import LatencySummary, ServingMetrics
from repro.serving.multiplex import (
    ModelResidency,
    MultiplexConfig,
    MultiplexReport,
)
from repro.serving.parallel import ParallelConfig
from repro.serving.policies import SchedulingConfig
from repro.serving.precision import SystemConfig, get_system
from repro.serving.request import Request, Workload
from repro.serving.speculative import SpeculativeConfig
from repro.serving.telemetry import (
    CounterRegistry,
    TelemetryConfig,
    Tracer,
    chrome_trace,
    resolve_tracers,
)

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "ShortestQueueRouter",
    "PrefixAffinityRouter",
    "DisaggregatedRouter",
    "PrecisionAwareRouter",
    "ModelAwareRouter",
    "ROUTERS",
    "get_router",
    "REPLICA_ROLES",
    "ClusterResult",
    "ClusterEngine",
]

#: Valid replica roles for disaggregated serving.
REPLICA_ROLES = ("prefill", "decode", "mixed")


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class Router(abc.ABC):
    """Chooses the replica each arriving request is dispatched to.

    ``route`` sees the replica steppers with their simulation advanced to
    the request's arrival time, so queue-state views
    (:attr:`EngineStepper.outstanding_requests`,
    :attr:`EngineStepper.pending_prefill_tokens`) reflect what a load
    balancer would observe at that instant.  Ties break toward the lowest
    replica index, keeping every router deterministic.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        """Index of the replica that should serve ``request``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cyclic assignment, blind to per-replica load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        index = self._next % len(replicas)
        self._next += 1
        return index


class LeastOutstandingRouter(Router):
    """Send to the replica with the fewest unfinished requests."""

    name = "least-outstanding"

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        return min(range(len(replicas)),
                   key=lambda i: (replicas[i].outstanding_requests, i))


class ShortestQueueRouter(Router):
    """Send to the replica owing the fewest pending prefill tokens.

    Counting tokens instead of requests makes the router robust to
    heavy-tailed prompt lengths: one 3k-token prompt weighs as much as many
    short chats.  Outstanding requests break ties so decode-heavy backlogs
    still register.
    """

    name = "shortest-queue"

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        return min(range(len(replicas)),
                   key=lambda i: (replicas[i].pending_prefill_tokens,
                                  replicas[i].outstanding_requests, i))


class PrefixAffinityRouter(Router):
    """Send same-prefix sessions to the replica holding their KV cache.

    Each arriving request probes every replica's prefix cache
    (:meth:`EngineStepper.cached_prefix_tokens`) and is routed to the
    replica with the best ``hit_tokens - load_penalty_tokens * outstanding``
    score, so cache affinity wins until the warm replica's queue grows
    ``load_penalty_tokens`` worth of backlog per waiting request.  Requests
    that hit nowhere (first turns, caching disabled) are routed
    least-outstanding but *stick* by session key — the first two prompt
    segments, i.e. (system prompt, first user message) — so a session's
    later turns find their history where the first turn built it.
    """

    name = "prefix-affinity"

    def __init__(self, load_penalty_tokens: int = 512) -> None:
        if load_penalty_tokens < 0:
            raise ValueError("load_penalty_tokens must be non-negative")
        self.load_penalty_tokens = load_penalty_tokens
        self._sticky: Dict[tuple, int] = {}

    @staticmethod
    def _session_key(request: Request) -> Optional[tuple]:
        if not request.prompt_segments:
            return None
        return tuple(request.prompt_segments[:2])

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        probes = [replica.cached_prefix_tokens(request) for replica in replicas]
        key = self._session_key(request)
        if max(probes) > 0:
            index = min(range(len(replicas)),
                        key=lambda i: (-(probes[i] - self.load_penalty_tokens
                                         * replicas[i].outstanding_requests), i))
        elif key is not None and key in self._sticky:
            index = self._sticky[key]
        else:
            index = min(range(len(replicas)),
                        key=lambda i: (replicas[i].outstanding_requests, i))
        if key is not None:
            self._sticky[key] = index
        return index


class DisaggregatedRouter(ShortestQueueRouter):
    """Router for prefill/decode-split clusters.

    ``route`` (inherited from shortest-queue) places *arrivals*: it sees
    only the prefill-capable replicas (roles ``prefill`` and ``mixed``) and
    picks the one owing the fewest pending prefill tokens — prompt work is
    what a prefill tier queues on.
    ``route_decode`` places *migrations*: among the decode-role replicas it
    picks the least-loaded one (fewest outstanding requests, pending-token
    tiebreak), counting in-flight transfers already bound for a replica so a
    burst of simultaneous prefill completions cannot dogpile one target.
    Outside a disaggregated cluster it degrades to shortest-queue routing.
    """

    name = "disaggregated"

    def route_decode(self, request: Request,
                     replicas: Sequence[EngineStepper]) -> int:
        """Index of the decode replica a finished prefill should migrate to."""
        return min(range(len(replicas)),
                   key=lambda i: (replicas[i].outstanding_requests,
                                  replicas[i].pending_prefill_tokens, i))


class PrecisionAwareRouter(Router):
    """Route by precision tier in a heterogeneous mixed-precision fleet.

    Replicas are grouped by their system preset's
    :attr:`~repro.serving.precision.SystemConfig.min_precision_bits`.
    Requests carrying a quality floor (``precision_floor_bits > 0``) go to
    the replicas that satisfy it; short interactive requests (total work at
    most ``interactive_tokens`` prompt+output tokens) go to the
    highest-precision group, whose replicas are also the fastest per token
    to first byte under light load in a mixed FP16 + W4A8KV4 fleet's
    latency tier; everything else — throughput traffic — lands on the
    lowest-precision (cheapest) group.  Within a group the least-outstanding
    replica wins, lowest index on ties.  On a homogeneous fleet every group
    is the whole fleet, so the router degrades to least-outstanding exactly.
    """

    name = "precision-aware"

    def __init__(self, interactive_tokens: int = 256) -> None:
        if interactive_tokens < 0:
            raise ValueError("interactive_tokens must be non-negative")
        self.interactive_tokens = interactive_tokens

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        bits = [replica.engine.system.min_precision_bits
                for replica in replicas]
        hi, lo = max(bits), min(bits)
        if hi == lo:
            group = range(len(replicas))
        elif request.precision_floor_bits > 0.0:
            group = [i for i in range(len(replicas))
                     if bits[i] >= request.precision_floor_bits]
            if not group:
                # No replica meets the floor; fail toward the best quality
                # available rather than refusing to route.
                group = [i for i in range(len(replicas)) if bits[i] == hi]
        elif request.prompt_len + request.output_len <= self.interactive_tokens:
            group = [i for i in range(len(replicas)) if bits[i] == hi]
        else:
            group = [i for i in range(len(replicas)) if bits[i] == lo]
        return min(group,
                   key=lambda i: (replicas[i].outstanding_requests, i))


class ModelAwareRouter(Router):
    """Route to a replica where the request's model is already warm.

    On a multiplexed fleet every candidate replica is scored as::

        swap_cost_s(model) + queue_cost_s * outstanding_requests

    A warm replica has zero swap cost, so warm replicas win unless their
    queues are deep enough that paying for a swap-in elsewhere is cheaper
    than waiting — the "least-loaded replica worth warming" fallback falls
    out of the same rule.  Ties break toward the lowest replica index.  On
    fleets whose replicas expose no residency manager (plain single-model
    replicas), the router degrades to least-outstanding exactly.
    """

    name = "model-aware"

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        if not hasattr(replicas[0], "swap_cost_s"):
            return min(range(len(replicas)),
                       key=lambda i: (replicas[i].outstanding_requests, i))
        model = replicas[0].resolve_model(request)
        queue_cost = replicas[0].queue_cost_s
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].swap_cost_s(model)
                           + queue_cost * replicas[i].outstanding_requests,
                           i))


ROUTERS: Dict[str, Type[Router]] = {
    cls.name: cls
    for cls in (RoundRobinRouter, LeastOutstandingRouter, ShortestQueueRouter,
                PrefixAffinityRouter, DisaggregatedRouter,
                PrecisionAwareRouter, ModelAwareRouter)
}


def get_router(name: str) -> Router:
    """Instantiate a router by registry name."""
    try:
        return ROUTERS[name]()
    except KeyError:
        known = ", ".join(sorted(ROUTERS))
        raise KeyError(f"unknown router {name!r}; known: {known}") from None


# ----------------------------------------------------------------------
# Cluster result
# ----------------------------------------------------------------------
@dataclass
class ClusterResult:
    """Aggregate outcome of serving one workload on an N-replica cluster."""

    replica_results: List[ServingResult]
    #: Number of requests each replica was routed (arrivals; migrated
    #: requests stay attributed to the prefill replica that admitted them).
    requests_per_replica: List[int]
    #: Cluster-wide latency metrics (union of all replicas' finished requests).
    metrics: ServingMetrics = field(default_factory=ServingMetrics)
    #: Role of each replica ("prefill" / "decode" / "mixed"); empty for
    #: results predating disaggregation.
    replica_roles: List[str] = field(default_factory=list)
    #: Migrated requests each replica *received* (all-zero without roles).
    migrations_per_replica: List[int] = field(default_factory=list)
    #: System preset name of each replica's engine; uniform for homogeneous
    #: clusters, mixed under per-replica ``systems`` (empty for results
    #: predating heterogeneous fleets).
    replica_systems: List[str] = field(default_factory=list)
    #: What the autoscaler did, for autoscaled runs (``None`` otherwise).
    #: Autoscaled results list only the replica slots that were ever
    #: provisioned; the report's windows say *when* each one was.
    autoscale: Optional[AutoscaleReport] = None
    #: GPUs per replica (tensor-parallel degree); prices
    #: :attr:`gpu_seconds` for static fleets.
    gpus_per_replica: int = 1
    #: Residency and swap accounting of a multiplexed run (``None``
    #: otherwise).  Multiplexed runs list one result slice per
    #: (replica, model) pair; this report is indexed by physical replica.
    multiplex: Optional[MultiplexReport] = None
    #: Physical GPUs-holding replicas, when result slices are finer-grained
    #: than hardware (multiplexed runs); ``None`` means one slice per
    #: replica, the historical layout.
    physical_replicas: Optional[int] = None

    @property
    def num_replicas(self) -> int:
        return len(self.replica_results)

    def _sum(self, attr: str) -> int:
        """Sum one numeric field across the per-replica results.

        The single summation point for every cluster-level additive gauge —
        the per-property ``sum(...)`` expressions this replaces had started
        to drift apart.
        """
        return sum(getattr(r, attr) for r in self.replica_results)

    def counters(self) -> CounterRegistry:
        """Cluster-wide counter registry: every replica's counters, summed.

        Run-level counters (pages allocated, admission scans, preemptions,
        prefix/speculation totals) merge exactly; capacity gauges sum to the
        cluster-wide capacity.  Workload-sliced quantities (``num_finished``
        etc.) stay on the properties below — in a disaggregated cluster a
        migrated request finishes on a *different* replica than the one its
        result slice is attributed to, so the two viewpoints differ by
        design.
        """
        merged = CounterRegistry()
        for result in self.replica_results:
            if result.counters is not None:
                merged.merge(result.counters)
        return merged

    @property
    def tracers(self) -> List[Tracer]:
        """The per-replica tracers of a telemetry-enabled run (else empty)."""
        return [r.telemetry for r in self.replica_results
                if r.telemetry is not None]

    def chrome_trace(self) -> Dict:
        """Merged Chrome trace of all replicas on the shared cluster clock."""
        tracers = self.tracers
        if not tracers:
            raise ValueError(
                "this run was not traced; pass telemetry=True to serve()")
        return chrome_trace(tracers)

    @property
    def num_migrations(self) -> int:
        """Prefill→decode handoffs performed during the run."""
        return sum(self.migrations_per_replica)

    @property
    def transfer_delay(self) -> LatencySummary:
        """Exposed KV-transfer delay percentiles over migrated requests."""
        return self.metrics.transfer_delay

    def role_utilization(self) -> Dict[str, float]:
        """Busy-time fraction of each role's replicas over the makespan.

        The quantity disaggregation tuning stares at: a prefill:decode ratio
        is right when neither role sits idle while the other saturates.
        """
        roles = self.replica_roles or ["mixed"] * self.num_replicas
        total = self.total_time_s
        out: Dict[str, float] = {}
        for role in sorted(set(roles)):
            members = [r for r, ro in zip(self.replica_results, roles)
                       if ro == role]
            busy = sum(r.busy_time_s for r in members)
            out[role] = 0.0 if total == 0 else busy / (len(members) * total)
        return out

    @property
    def total_time_s(self) -> float:
        """Cluster makespan: the clock of the last replica to finish."""
        return max((r.total_time_s for r in self.replica_results), default=0.0)

    @property
    def generated_tokens(self) -> int:
        return self._sum("generated_tokens")

    @property
    def prompt_tokens(self) -> int:
        return self._sum("prompt_tokens")

    @property
    def num_finished(self) -> int:
        return self._sum("num_finished")

    @property
    def num_unserved(self) -> int:
        return self._sum("num_unserved")

    @property
    def num_dropped(self) -> int:
        """Requests shed by tier-aware admission (subset of unserved)."""
        return self._sum("num_dropped")

    @property
    def gpu_seconds(self) -> float:
        """Provisioned GPU-time: the fleet's cost over the run.

        A static fleet holds every replica for the whole makespan; an
        autoscaled fleet pays only for each slot's provisioned windows —
        the number a capacity plan compares the two on.
        """
        if self.autoscale is not None:
            return self.autoscale.gpu_seconds
        replicas = (self.num_replicas if self.physical_replicas is None
                    else self.physical_replicas)
        return replicas * self.gpus_per_replica * self.total_time_s

    @property
    def num_preemptions(self) -> int:
        return self._sum("num_preemptions")

    @property
    def generation_throughput(self) -> float:
        """Cluster generated tokens per second over the makespan."""
        total = self.total_time_s
        return 0.0 if total == 0 else self.generated_tokens / total

    @property
    def saved_prefill_tokens(self) -> int:
        """Prefill tokens skipped via prefix-cache hits across all replicas."""
        return self._sum("saved_prefill_tokens")

    @property
    def acceptance_rate(self) -> float:
        """Cluster-wide draft-token acceptance rate (0 when speculation is off).

        Aggregated over the replicas that ran speculative decoding — in a
        disaggregated cluster, the decode tier.
        """
        proposed = sum(r.spec_stats.proposed_tokens for r in self.replica_results
                       if r.spec_stats is not None)
        accepted = sum(r.spec_stats.accepted_tokens for r in self.replica_results
                       if r.spec_stats is not None)
        return 0.0 if proposed == 0 else accepted / proposed

    @property
    def cache_hit_rate(self) -> float:
        """Cluster-wide prefix-cache token hit rate (0 when caching is off)."""
        hits = sum(r.prefix_stats.hit_tokens for r in self.replica_results
                   if r.prefix_stats is not None)
        misses = sum(r.prefix_stats.miss_tokens for r in self.replica_results
                     if r.prefix_stats is not None)
        total = hits + misses
        return 0.0 if total == 0 else hits / total

    def slo_goodput(self, ttft_slo_s: float, tpot_slo_s: float) -> float:
        """Cluster requests per second completed within the latency SLO."""
        return self.metrics.slo_goodput(ttft_slo_s, tpot_slo_s,
                                        self.total_time_s)

    def to_json(self) -> Dict:
        """Structured (JSON-serializable) export of the cluster run.

        Cluster-level aggregates plus the full per-replica
        :meth:`~repro.serving.engine.ServingResult.to_json` payloads and the
        merged counter registry.
        """
        return {
            "num_replicas": self.num_replicas,
            "total_time_s": self.total_time_s,
            "generated_tokens": self.generated_tokens,
            "prompt_tokens": self.prompt_tokens,
            "num_finished": self.num_finished,
            "num_unserved": self.num_unserved,
            "num_dropped": self.num_dropped,
            "num_preemptions": self.num_preemptions,
            "num_migrations": self.num_migrations,
            "gpu_seconds": self.gpu_seconds,
            "autoscale": (None if self.autoscale is None
                          else self.autoscale.to_json()),
            "multiplex": (None if self.multiplex is None
                          else self.multiplex.to_json()),
            "generation_throughput": self.generation_throughput,
            "saved_prefill_tokens": self.saved_prefill_tokens,
            "acceptance_rate": self.acceptance_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "requests_per_replica": list(self.requests_per_replica),
            "migrations_per_replica": list(self.migrations_per_replica),
            "replica_roles": list(self.replica_roles),
            "replica_systems": list(self.replica_systems),
            "role_utilization": self.role_utilization(),
            "metrics": self.metrics.to_json(),
            "counters": self.counters().as_dict(),
            "replica_results": [r.to_json() for r in self.replica_results],
        }


# ----------------------------------------------------------------------
# Multiplexed replica
# ----------------------------------------------------------------------
class _MultiplexReplica:
    """One physical replica hosting several models behind one GPU clock.

    Holds one :class:`EngineStepper` per servable model plus the replica's
    :class:`~repro.serving.multiplex.ModelResidency`.  The steppers share
    the accelerator: this wrapper serializes them on a single timeline —
    at any instant at most one model's iteration (or weight swap-in)
    occupies the GPU — while each stepper keeps its own scheduler, KV pool
    and model-namespaced prefix cache, all carved statically by the
    residency manager.
    """

    def __init__(self, config: MultiplexConfig,
                 steppers: List[EngineStepper],
                 residency: ModelResidency) -> None:
        self.config = config
        self.steppers = steppers
        self.by_model: Dict[str, EngineStepper] = {
            stepper.model_name: stepper for stepper in steppers}
        self.residency = residency
        # Fleet counter merges must count each swap once: the residency
        # manager reports through this replica's first stepper only.
        steppers[0].residency = residency
        #: Serialized GPU frontier: the time up to which the accelerator
        #: is committed (iterations and swap windows of *any* model).
        self.clock = 0.0

    # -- router-facing views -------------------------------------------
    @property
    def outstanding_requests(self) -> int:
        return sum(s.outstanding_requests for s in self.steppers)

    @property
    def pending_prefill_tokens(self) -> int:
        return sum(s.pending_prefill_tokens for s in self.steppers)

    def cached_prefix_tokens(self, request: Request) -> int:
        return self.by_model[self.resolve_model(request)] \
            .cached_prefix_tokens(request)

    @property
    def queue_cost_s(self) -> float:
        return self.config.queue_cost_s

    def resolve_model(self, request: Request) -> str:
        """The model this request runs on (fleet default when untagged)."""
        model = (request.model if request.model is not None
                 else self.config.default_model)
        if model not in self.by_model:
            raise ValueError(
                f"request {request.request_id} targets model {model!r}, "
                f"not in this fleet's multiplex set "
                f"{sorted(self.by_model)}")
        return model

    def swap_cost_s(self, model: str) -> float:
        return self.residency.swap_cost_s(model)

    # -- serving --------------------------------------------------------
    def submit(self, request: Request) -> EngineStepper:
        """Queue ``request`` on its model's stepper, swapping in if cold.

        A cold model pays its weight transfer as a replica-busy window on
        the shared clock — priced exactly like an autoscaler cold start —
        before the stepper may run an iteration for it.
        """
        model = self.resolve_model(request)
        stepper = self.by_model[model]
        cost = self.residency.ensure_resident(model)
        if cost > 0.0:
            stepper.sync_clock(max(self.clock, request.arrival_time))
            t0 = stepper.charge_busy(cost)
            self.clock = stepper.now
            if stepper.tracer is not None:
                stepper.tracer.model_swap(model, t0, stepper.now)
        stepper.submit(request)
        return stepper

    def run_until(self, t: float) -> None:
        """Advance the serialized timeline until no stepper can start < ``t``.

        Repeatedly picks the stepper able to start soonest on the shared
        GPU — its own :meth:`~EngineStepper.next_ready_time`, but never
        before the replica's committed frontier — lets it run one step, and
        folds the outcome back into the frontier.  Ties break toward the
        lowest model index.  ``t=math.inf`` drains everything.
        """
        while True:
            starts = [(max(self.clock, ready), j)
                      for j, stepper in enumerate(self.steppers)
                      if (ready := stepper.next_ready_time()) is not None]
            if not starts or min(starts)[0] >= t:
                return
            start, j = min(starts)
            stepper = self.steppers[j]
            stepper.sync_clock(start)
            stepper.step()
            self.clock = max(self.clock, stepper.now)


# ----------------------------------------------------------------------
# Cluster engine
# ----------------------------------------------------------------------
class ClusterEngine:
    """N replica engines behind a pluggable router.

    By default every replica shares the same (model, GPU, system, parallel)
    engine — the cost model is stateless — but owns its scheduler, KV cache
    and clock.  Replicas are independent once requests are assigned, so the
    shared-clock simulation only has to synchronise at routing decisions:
    before each dispatch all replicas advance to the request's arrival time,
    giving the router an honest view of queue depths at that instant.

    ``systems`` makes the fleet *heterogeneous*: one system preset (name or
    :class:`~repro.serving.precision.SystemConfig`) per replica, so an FP16
    latency tier and a W4A8KV4 throughput tier serve behind one router.
    Replicas with the same preset share one engine (and its cost-model
    cache); passing a uniform ``systems`` list equal to ``system`` is
    bitwise-identical to omitting it.  Precision changes a replica's page
    geometry (KV bytes per token → KV capacity in pages), its kernel costs,
    and — for migrations between tiers — the transfer payload: KV bytes are
    priced at the *source* replica's KV precision, and landing on a replica
    with a different KV bit-width additionally pays that replica's
    transcode (dequant/requant) cost for the cold tokens.

    ``roles`` turns on disaggregated serving: one role per replica, from
    :data:`REPLICA_ROLES`.  ``prefill`` replicas export each request the
    moment its prefill completes; the request's KV state is transferred over
    ``transfer_link`` to a ``decode`` replica, which adopts the pages and
    generates every output token.  ``mixed`` replicas (the default when
    ``roles`` is omitted) serve requests end to end exactly as before.  With
    ``transfer_overlap`` (layer-by-layer streaming, DistServe-style) the
    transfer hides behind one decode iteration's worth of time and only the
    remainder — floored at the link's message latency — is exposed as delay.
    """

    def __init__(self, model: ModelConfig, gpu: GPUSpec, system: SystemConfig,
                 num_replicas: int, max_seq_len: int = 2048,
                 parallel: Optional[ParallelConfig] = None,
                 roles: Optional[Sequence[str]] = None,
                 transfer_link: InterconnectSpec = NVLINK,
                 transfer_overlap: bool = True,
                 systems: Optional[Sequence[Union[str, SystemConfig]]] = None
                 ) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.num_replicas = num_replicas
        self.engine = ServingEngine(model, gpu, system, max_seq_len=max_seq_len,
                                    parallel=parallel)
        if systems is None:
            self.engines: List[ServingEngine] = [self.engine] * num_replicas
        else:
            if len(systems) != num_replicas:
                raise ValueError(
                    f"systems has {len(systems)} entries for "
                    f"{num_replicas} replicas")
            resolved = [get_system(s) if isinstance(s, str) else s
                        for s in systems]
            # One engine per distinct preset: replicas with the same system
            # share cost-model caches, and a replica matching the base
            # ``system`` reuses ``self.engine`` itself, so a uniform
            # ``systems`` list is the homogeneous cluster by construction.
            built: Dict[str, ServingEngine] = {
                self.engine.system.name: self.engine}
            self.engines = []
            for sys_config in resolved:
                engine = built.get(sys_config.name)
                if engine is None:
                    engine = ServingEngine(model, gpu, sys_config,
                                           max_seq_len=max_seq_len,
                                           parallel=parallel)
                    built[sys_config.name] = engine
                self.engines.append(engine)
        self.roles = list(roles) if roles is not None else \
            ["mixed"] * num_replicas
        if len(self.roles) != num_replicas:
            raise ValueError(
                f"roles has {len(self.roles)} entries for "
                f"{num_replicas} replicas")
        unknown = sorted(set(self.roles) - set(REPLICA_ROLES))
        if unknown:
            raise ValueError(f"unknown replica roles {unknown}; "
                             f"valid: {', '.join(REPLICA_ROLES)}")
        if self.disaggregated:
            if not any(r in ("prefill", "mixed") for r in self.roles):
                raise ValueError(
                    "disaggregated cluster has no prefill-capable replica")
            if "prefill" in self.roles and "decode" not in self.roles:
                raise ValueError(
                    "prefill-role replicas need at least one decode replica "
                    "to migrate to")
            if "decode" in self.roles and "prefill" not in self.roles:
                # Only prefill-role replicas export; mixed replicas serve
                # end to end, so a decode replica without a prefill feeder
                # would idle for the whole run.
                raise ValueError(
                    "decode-role replicas need at least one prefill replica "
                    "to receive migrations from")
        self.transfer_link = transfer_link
        self.transfer_overlap = transfer_overlap
        #: KV bytes per cached token under this system's KV precision — the
        #: payload density of a prefill→decode transfer.
        self.kv_bytes_per_token = self.engine.kv_bytes_per_token()

    @property
    def disaggregated(self) -> bool:
        """Whether any replica is role-specialised (prefill or decode)."""
        return any(role != "mixed" for role in self.roles)

    @property
    def heterogeneous(self) -> bool:
        """Whether replicas run under more than one system preset."""
        return len({engine.system.name for engine in self.engines}) > 1

    @property
    def total_gpus(self) -> int:
        """GPUs across the whole cluster (replicas x TP degree)."""
        return self.num_replicas * self.engine.tp_degree

    def serve(self, workload: Workload,
              router: Union[str, Router] = "least-outstanding",
              max_num_seqs: Optional[int] = None,
              scheduling: Optional[SchedulingConfig] = None,
              speculative: Optional[SpeculativeConfig] = None,
              telemetry: Union[None, bool, TelemetryConfig] = None,
              autoscaler: Optional[AutoscalerConfig] = None,
              multiplex: Optional[MultiplexConfig] = None
              ) -> ClusterResult:
        """Serve ``workload`` across the cluster and aggregate the results.

        ``router`` is a registry name or a :class:`Router` instance (fresh
        instances keep round-robin state per run).  ``max_num_seqs`` and
        ``scheduling`` apply per replica, exactly as in
        :meth:`ServingEngine.serve`.  ``speculative`` enables speculative
        decoding on every decode-capable replica (``decode`` and ``mixed``
        roles; prefill-role replicas never decode, so they keep their full
        KV budget instead of hosting a draft model).  In a disaggregated
        cluster the router sees only the prefill-capable replicas; migration
        targets are picked by :meth:`DisaggregatedRouter.route_decode`
        (least-loaded fallback for routers without one).  ``telemetry``
        attaches one :class:`~repro.serving.telemetry.Tracer` per replica,
        all on the shared cluster clock; merge them with
        :meth:`ClusterResult.chrome_trace`.

        ``autoscaler`` turns the fixed fleet into a reactive one:
        ``num_replicas`` becomes the replica *pool* and the
        :class:`~repro.serving.autoscaler.AutoscalerConfig` decides, every
        ``interval_s`` on the shared clock, how many of its slots are
        provisioned.  Scale-ups pay a priced cold start before serving;
        scale-downs drain through the migration machinery (decoding
        requests move with their KV state, prefilling ones are recomputed
        elsewhere).  Incompatible with role-specialised replicas.

        ``multiplex`` turns every replica into a multi-model host: a
        :class:`~repro.serving.multiplex.MultiplexConfig` names the model
        set, how many may hold weights in HBM at once, and the host link
        swap-ins are priced over.  Each replica serializes its models on
        one GPU timeline; routing sees whole replicas (pass
        ``router="model-aware"`` for warm-first placement) and the result
        carries one slice per (replica, model) plus a
        :class:`~repro.serving.multiplex.MultiplexReport`.  Incompatible
        with roles, heterogeneous ``systems`` and autoscaling.
        """
        if isinstance(router, str):
            router = get_router(router)
        if multiplex is not None and autoscaler is not None:
            raise ValueError(
                "multiplexing and autoscaling are mutually exclusive")
        if multiplex is not None and self.disaggregated:
            raise ValueError(
                "multiplexing and role-specialised replicas are "
                "mutually exclusive; use mixed roles")
        if multiplex is not None and self.heterogeneous:
            raise ValueError(
                "multiplexing and per-replica systems are mutually "
                "exclusive")
        if autoscaler is not None and self.disaggregated:
            raise ValueError(
                "autoscaling and role-specialised replicas are mutually "
                "exclusive; use mixed roles")
        scaler: Optional[ReactiveAutoscaler] = None
        next_tick = math.inf
        if autoscaler is not None:
            max_replicas = (autoscaler.max_replicas
                            if autoscaler.max_replicas is not None
                            else self.num_replicas)
            if max_replicas > self.num_replicas:
                raise ValueError(
                    f"max_replicas={max_replicas} exceeds the replica pool "
                    f"(num_replicas={self.num_replicas})")
            scaler = ReactiveAutoscaler(autoscaler, max_replicas)
            next_tick = autoscaler.interval_s

        replicas = self._replicas(scheduling, max_num_seqs, speculative,
                                  telemetry, multiplex)
        pool = len(replicas)
        steppers = [s for replica in replicas for s in replica.steppers]
        #: Requests routed to, and migrations received by, each result slice.
        assigned: Dict[int, List[Request]] = {id(s): [] for s in steppers}
        migrated_in: Dict[int, int] = {id(s): 0 for s in steppers}
        #: "stopped" | "starting" | "active" per replica; only an autoscaler
        #: starts or stops replicas.
        state = ["active" if scaler is None else "stopped"] * pool
        ready_at = [0.0] * pool
        windows: List[List[List[float]]] = [[] for _ in range(pool)]
        seen_finished = [0] * pool
        exporters = [(k, s) for k, s in enumerate(steppers) if s.migrate_out]
        decode_idx = [k for k, role in enumerate(self.roles)
                      if role == "decode"]
        decode_router = (router if isinstance(router, DisaggregatedRouter)
                         else DisaggregatedRouter())
        #: (prefill completion time, tiebreak, source replica index, request)
        #: — min-heap of finished prefills awaiting migration routing.
        handoffs: List[Tuple[float, int, int, Request]] = []
        tiebreak = itertools.count()
        arrivals = sorted(workload.requests,
                          key=lambda r: (r.arrival_time, r.request_id))
        pos = 0

        def provision(k: int, start: float, ready: float) -> None:
            # A replica cannot run before its weights land; a reactivated
            # one also never rewinds its own clock.
            replicas[k].sync_clock(ready)
            ready_at[k] = ready
            windows[k].append([start, None])
            state[k] = "active" if ready <= start else "starting"

        def advance(t: float) -> None:
            for k in range(pool):
                if state[k] != "stopped":
                    replicas[k].run_until(t)
            for k in range(pool):
                if state[k] == "starting" and ready_at[k] <= t:
                    state[k] = "active"

        def least_loaded(targets: List[int]) -> int:
            return min(targets,
                       key=lambda k: (replicas[k].outstanding_requests, k))

        if autoscaler is not None:
            for k in range(autoscaler.min_replicas):
                provision(k, 0.0, 0.0)  # the initial fleet is pre-warmed

        while True:
            t_arrival = (arrivals[pos].arrival_time if pos < len(arrivals)
                         else math.inf)
            # Prefill-role replicas are the only source of handoffs and take
            # input only from arrivals, so running them up to the next
            # arrival or tick puts every earlier handoff on the heap; each is
            # then routed at its own instant.
            for k, stepper in exporters:
                stepper.run_until(min(t_arrival, next_tick))
                for request in stepper.outbox:
                    heapq.heappush(handoffs, (request.prefill_done_time,
                                              next(tiebreak), k, request))
                stepper.outbox.clear()
            if handoffs and handoffs[0][0] <= t_arrival:
                done_time, _, source, request = heapq.heappop(handoffs)
                advance(done_time)
                target = steppers[decode_idx[decode_router.route_decode(
                    request, [replicas[k] for k in decode_idx])]]
                self.migrate_kv(request, steppers[source], target, done_time)
                migrated_in[id(target)] += 1
            elif pos < len(arrivals) and t_arrival <= next_tick:
                request = arrivals[pos]
                pos += 1
                advance(t_arrival)
                routable = [k for k in range(pool) if state[k] == "active"
                            and self.roles[k] != "decode"]
                index = routable[router.route(
                    request, [replicas[k] for k in routable])]
                assigned[id(replicas[index].submit(request))].append(request)
            elif scaler is None:
                advance(math.inf)  # no more events: every replica runs dry
                break
            else:
                # Nothing can change once arrivals are exhausted, no replica
                # is starting and no active one can make progress.
                if pos == len(arrivals) and "starting" not in state and all(
                        replicas[k].next_ready_time() is None
                        for k in range(pool) if state[k] == "active"):
                    break
                advance(next_tick)
                now, next_tick = next_tick, next_tick + autoscaler.interval_s
                active = [k for k in range(pool) if state[k] == "active"]
                recent_finished = recent_ok = 0
                for k in active:
                    finished = replicas[k].scheduler.finished
                    for request in finished[seen_finished[k]:]:
                        recent_finished += 1
                        if (autoscaler.ttft_slo_s is None
                                or request.first_token_time
                                - request.arrival_time
                                <= autoscaler.ttft_slo_s):
                            recent_ok += 1
                    seen_finished[k] = len(finished)
                decision = scaler.decide(FleetSnapshot(
                    now=now,
                    num_active=len(active),
                    num_starting=state.count("starting"),
                    queue_depth=sum(len(replicas[k].scheduler.waiting)
                                    for k in active),
                    outstanding=sum(replicas[k].outstanding_requests
                                    for k in active),
                    recent_finished=recent_finished,
                    recent_slo_ok=recent_ok,
                ))
                if decision is None:
                    continue
                action, reason = decision
                if action == "up":
                    k = state.index("stopped")
                    provision(k, now, now + autoscaler.cold_start_s(
                        self.engines[k].weight_bytes()))
                else:
                    # Drain the least-loaded replica: decoding requests move
                    # with their KV state; a partial prefill is cheaper to
                    # recompute than to ship, so prefilling requests are
                    # preempted and rerouted with the waiting queue.
                    k = min(active, key=lambda s: (
                        replicas[s].outstanding_requests, -s))
                    targets = [s for s in active if s != k]
                    scheduler = replicas[k].scheduler
                    for request in list(scheduler.decoding):
                        scheduler.export_request(request, now)
                        target = replicas[least_loaded(targets)]
                        self.migrate_kv(request, replicas[k], target, now)
                        migrated_in[id(target)] += 1
                    for request in list(scheduler.prefilling):
                        scheduler.preempt(request, now)
                    for request in scheduler.take_waiting():
                        replicas[least_loaded(targets)].submit(request)
                    state[k] = "stopped"
                    windows[k][-1][1] = now
                scaler.commit(ScalingEvent(now, action, k,
                                           state.count("active"), reason))

        used = range(pool)
        autoscale = None
        if autoscaler is not None:
            # Results list only the replicas that were ever provisioned.
            used = [k for k in range(pool) if windows[k]]
            makespan = max(replicas[k].now for k in used)
            for k in used:
                if windows[k][-1][1] is None:
                    windows[k][-1][1] = max(windows[k][-1][0], makespan)
            autoscale = AutoscaleReport(
                events=scaler.events,
                windows=[[tuple(w) for w in windows[k]] for k in used],
                cold_start_s=autoscaler.cold_start_s(
                    self.engine.weight_bytes()),
                gpus_per_replica=self.engine.tp_degree,
                makespan_s=makespan,
            )
        return self._assemble([replicas[k] for k in used],
                              [self.roles[k] for k in used],
                              assigned, migrated_in, autoscale, multiplex)

    def _replicas(self, scheduling: Optional[SchedulingConfig],
                  max_num_seqs: Optional[int],
                  speculative: Optional[SpeculativeConfig],
                  telemetry: Union[None, bool, TelemetryConfig],
                  multiplex: Optional[MultiplexConfig]) -> List:
        """One replica per pool slot: an :class:`EngineStepper` traced as
        ``replica<i>`` (plus its role when specialised), or under
        ``multiplex`` a :class:`_MultiplexReplica` whose per-model steppers
        (engines shared per model) trace as ``replica<i>/<model>``."""
        if multiplex is None:
            tracers = resolve_tracers(telemetry, [
                f"replica{i}" if role == "mixed" else f"replica{i} ({role})"
                for i, role in enumerate(self.roles)])
            return [EngineStepper(engine, scheduling=scheduling,
                                  max_num_seqs=max_num_seqs,
                                  migrate_out=(role == "prefill"),
                                  speculative=(None if role == "prefill"
                                               else speculative),
                                  telemetry=tracer)
                    for engine, role, tracer in zip(self.engines, self.roles,
                                                    tracers)]
        base = self.engine
        engines = {
            model.name: (base if model.name == base.model.name
                         else ServingEngine(model, base.gpu, base.system,
                                            max_seq_len=base.max_seq_len,
                                            parallel=base.parallel))
            for model in multiplex.models}
        weight = {name: engine.weight_bytes()
                  for name, engine in engines.items()}
        workspace = {
            name: (engine.weight_bytes_per_gpu()
                   * engine.system.activation_workspace_factor
                   + 1.0 * (1 << 30)) * engine.tp_degree
            for name, engine in engines.items()}
        tracers = iter(resolve_tracers(telemetry, [
            f"replica{i}/{model.name}" for i in range(self.num_replicas)
            for model in multiplex.models]))
        replicas = []
        for _ in range(self.num_replicas):
            residency = ModelResidency(multiplex, base.gpu, weight, workspace,
                                       tp_degree=base.tp_degree)
            replicas.append(_MultiplexReplica(multiplex, [
                EngineStepper(engines[model.name], scheduling=scheduling,
                              max_num_seqs=max_num_seqs,
                              speculative=speculative,
                              telemetry=next(tracers),
                              model_name=model.name,
                              kv_capacity_bytes=residency.kv_pool_bytes())
                for model in multiplex.models], residency))
        return replicas

    def _assemble(self, replicas: List, roles: List[str],
                  assigned: Dict[int, List[Request]],
                  migrated_in: Dict[int, int],
                  autoscale: Optional[AutoscaleReport],
                  multiplex: Optional[MultiplexConfig]) -> ClusterResult:
        """Aggregate every stepper's result slice into one result."""
        steppers = [s for replica in replicas for s in replica.steppers]
        assignments = [assigned[id(s)] for s in steppers]
        results = [stepper.result(Workload(requests=requests))
                   for stepper, requests in zip(steppers, assignments)]
        merged = ServingMetrics(
            requests=[m for r in results if r.metrics is not None
                      for m in r.metrics.requests])
        result = ClusterResult(
            replica_results=results,
            requests_per_replica=[len(a) for a in assignments],
            metrics=merged,
            replica_roles=[role for replica, role in zip(replicas, roles)
                           for _ in replica.steppers],
            migrations_per_replica=[migrated_in[id(s)] for s in steppers],
            replica_systems=[s.engine.system.name for s in steppers],
            autoscale=autoscale,
            gpus_per_replica=self.engine.tp_degree,
        )
        if multiplex is not None:
            requests_by_model = {model.name: 0 for model in multiplex.models}
            for stepper, requests in zip(steppers, assignments):
                requests_by_model[stepper.model_name] += len(requests)
            result.multiplex = MultiplexReport(
                replicas=[r.residency.snapshot() for r in replicas],
                requests_by_model=requests_by_model)
            result.physical_replicas = len(replicas)
        return result

    # ------------------------------------------------------------------
    # KV migration
    # ------------------------------------------------------------------
    def transfer_delay(self, request: Request, cached_tokens: int = 0,
                       source: Optional[ServingEngine] = None,
                       target: Optional[ServingEngine] = None) -> float:
        """Exposed delay of shipping ``request``'s KV state to a decode replica.

        The payload is the KV bytes of the prompt's context minus
        ``cached_tokens`` the target replica already holds in its prefix
        cache (those blocks need no transfer).  It crosses ``transfer_link``
        as one point-to-point message; with ``transfer_overlap`` the
        layer-by-layer stream hides behind one decode iteration at the
        request's context length and only the remainder — never less than
        the link's message latency — is exposed on the critical path.

        In a heterogeneous fleet ``source``/``target`` name the two
        replicas' engines (both default to the cluster's base engine): the
        wire payload is priced at the *source* engine's KV precision —
        that is what the exporter holds — and when the two tiers store KV
        at different bit-widths the landing replica additionally pays its
        transcode cost to rewrite the cold tokens into its own format
        before decode can touch them.
        """
        src = self.engine if source is None else source
        dst = self.engine if target is None else target
        cold_tokens = max(0, request.context_len - cached_tokens)
        raw = self.transfer_link.transfer_latency(
            src.kv_bytes_per_token() * cold_tokens)
        if src.system.kv_bits != dst.system.kv_bits:
            raw += dst.kv_transcode_latency(cold_tokens, src.system)
        if not self.transfer_overlap:
            return raw
        overlap = dst.decode_step(1, request.context_len).total
        return max(self.transfer_link.latency_s, raw - overlap)

    def migrate_kv(self, request: Request, source: EngineStepper,
                   target: EngineStepper, now: float) -> None:
        """Ship ``request``'s exported KV state from ``source`` to ``target``.

        The one migration path, shared by prefill→decode handoffs and
        autoscaler drains.  ``target`` admits the request once the priced
        transfer lands; it occupies the interconnect, not the GPU, so other
        decodes proceed meanwhile.
        """
        # Pinning the target's matched prefix keeps the priced payload
        # honest: the credited blocks cannot be evicted mid-transfer.
        delay = self.transfer_delay(request, target.pin_for_import(request),
                                    source=source.engine, target=target.engine)
        if request.demoted_hit_tokens:
            # The pinned prefix includes blocks the target had demoted to
            # the 4-bit tier; they are restored before decode adopts them,
            # and the restore rides the transfer window.
            delay += target.engine.kv_dequant_latency(
                request.demoted_hit_tokens)
            request.demoted_hit_tokens = 0
        request.migrations += 1
        request.transfer_delay_s += delay
        request.migration_ready_time = now + delay
        if target.tracer is not None:
            # The transfer occupies the interconnect toward the target
            # replica for its exposed window; the span lands on the
            # target's timeline, where the request decodes next.
            target.tracer.transfer(request, now, now + delay)
        target.submit(request)
