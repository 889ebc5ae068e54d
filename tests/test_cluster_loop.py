"""Cluster event loop: event order, termination and trace naming across
fleet modes."""

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    EngineStepper,
    ModelResidency,
    MultiplexConfig,
    ReactiveAutoscaler,
    Request,
    SCHEDULING_PRESETS,
    ServingEngine,
    Workload,
    get_system,
    make_multi_model_workload,
    make_router_study_workload,
    make_uniform_workload,
)

M7 = get_config("llama-2-7b")
M13 = get_config("llama-2-13b")
SYSTEM = get_system("qserve-w4a8kv4-chn")

#: KV pool of every replica (or every multiplexed model) in pages; the
#: 4000-token request below needs more than this and can never be admitted.
POOL_PAGES = 200


def _pool_bytes() -> float:
    page_bytes = ServingEngine(M7, A100, SYSTEM).new_kv_manager() \
        .bytes_per_page()
    return POOL_PAGES * page_bytes


def _stuck_workload() -> Workload:
    requests = [Request(request_id=0, prompt_len=4000, output_len=16,
                        arrival_time=0.0)]
    requests += [Request(request_id=i, prompt_len=64, output_len=8,
                         arrival_time=0.05 * i) for i in range(1, 9)]
    return Workload(requests=requests)


@pytest.mark.parametrize("mode", ["static", "disaggregated", "autoscaled",
                                  "multiplexed"])
def test_never_admittable_request_ends_every_fleet_mode(mode, monkeypatch):
    pool_bytes = _pool_bytes()
    kwargs = {}
    roles = None
    if mode == "multiplexed":
        monkeypatch.setattr(ModelResidency, "kv_pool_bytes",
                            lambda self: pool_bytes)
        kwargs["multiplex"] = MultiplexConfig(models=(M7, M13),
                                              max_resident_models=1)
    else:
        monkeypatch.setattr(ServingEngine, "kv_capacity_bytes",
                            lambda self: pool_bytes)
    if mode == "disaggregated":
        roles = ["prefill", "decode"]
        kwargs["scheduling"] = SCHEDULING_PRESETS["chunked-preempt"]
    elif mode == "autoscaled":
        kwargs["autoscaler"] = AutoscalerConfig(min_replicas=1,
                                                max_replicas=2,
                                                interval_s=1.0)
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=2,
                            max_seq_len=8192, roles=roles)
    result = cluster.serve(_stuck_workload(), **kwargs)
    assert result.num_unserved == 1
    assert result.num_finished == 8


def test_blocked_stepper_is_cleared_by_an_admittable_submission(monkeypatch):
    pool_bytes = _pool_bytes()
    monkeypatch.setattr(ServingEngine, "kv_capacity_bytes",
                        lambda self: pool_bytes)
    stepper = EngineStepper(ServingEngine(M7, A100, SYSTEM, max_seq_len=8192))
    stepper.submit(_stuck_workload().requests[0])
    stepper.run()
    assert stepper.next_ready_time() is None and not stepper.done
    small = Request(request_id=1, prompt_len=64, output_len=8,
                    arrival_time=stepper.now)
    stepper.submit(small)
    assert stepper.next_ready_time() == stepper.now
    stepper.run()
    assert small.finish_time is not None
    # The oversized request still cannot be admitted.
    assert stepper.next_ready_time() is None


def test_autoscaled_fleet_stops_at_first_tick_after_every_replica_blocks(
        monkeypatch):
    pool_bytes = _pool_bytes()
    monkeypatch.setattr(ServingEngine, "kv_capacity_bytes",
                        lambda self: pool_bytes)
    ticks = []
    decide = ReactiveAutoscaler.decide

    def recording_decide(self, snapshot):
        ticks.append(snapshot.now)
        return decide(self, snapshot)

    monkeypatch.setattr(ReactiveAutoscaler, "decide", recording_decide)
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=2,
                            max_seq_len=8192)
    result = cluster.serve(_stuck_workload(), autoscaler=AutoscalerConfig(
        min_replicas=1, max_replicas=2, interval_s=1.0))
    # Every servable request finished, and the oversized one blocked,
    # before the first tick; that tick is the last.
    assert result.total_time_s < 1.0
    assert ticks == [1.0]
    assert result.num_unserved == 1


def test_handoffs_are_routed_at_their_own_instant(monkeypatch):
    """A decode target is at most one of its own iterations past the
    instant a handoff is routed to it."""
    started = {}
    step = EngineStepper.step

    def recording_step(self):
        # A step starts at the ready time it moves the clock to.
        started[id(self)] = self.next_ready_time()
        return step(self)

    late = []
    migrate = ClusterEngine.migrate_kv

    def checking_migrate(self, request, source, target, now):
        # The target's clock may pass ``now`` only through an iteration
        # that started at or before it.
        if target.now > now and started.get(id(target), 0.0) > now:
            late.append((request.request_id, target.now - now))
        return migrate(self, request, source, target, now)

    monkeypatch.setattr(EngineStepper, "step", recording_step)
    monkeypatch.setattr(ClusterEngine, "migrate_kv", checking_migrate)
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=4, max_seq_len=4096,
                            roles=["prefill", "decode", "decode", "decode"])
    result = cluster.serve(make_router_study_workload(120, seed=1),
                           router="disaggregated", max_num_seqs=24,
                           scheduling=SCHEDULING_PRESETS["chunked"])
    assert result.num_migrations == 120
    assert late == []


def _process_names(result):
    return {event["pid"]: event["args"]["name"]
            for event in result.chrome_trace()["traceEvents"]
            if event["name"] == "process_name"}


def test_disaggregated_trace_processes_carry_roles():
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=3,
                            roles=["mixed", "prefill", "decode"])
    workload = make_uniform_workload(num_requests=12, prompt_len=64,
                                     output_len=8, arrival_rate=20.0, seed=2)
    result = cluster.serve(workload, router="disaggregated", telemetry=True,
                           scheduling=SCHEDULING_PRESETS["chunked"])
    assert _process_names(result) == {0: "replica0",
                                      1: "replica1 (prefill)",
                                      2: "replica2 (decode)"}


def test_multiplexed_trace_processes_are_flat_per_model():
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=2)
    workload = make_multi_model_workload(
        20, models=(M7.name, M13.name), weights=(0.5, 0.5),
        arrival_rate=8.0, prompt_len=64, output_len=8, seed=4)
    result = cluster.serve(workload, router="model-aware", telemetry=True,
                           multiplex=MultiplexConfig(models=(M7, M13),
                                                     max_resident_models=1))
    assert _process_names(result) == {0: "replica0/llama-2-7b",
                                      1: "replica0/llama-2-13b",
                                      2: "replica1/llama-2-7b",
                                      3: "replica1/llama-2-13b"}
