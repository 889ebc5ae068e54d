"""The scheduler's running set, partitioned by state.

The scheduler keeps admitted requests in two lists, ``prefilling`` and
``decoding``, each in admission order; every iteration walks only the list
it needs.  These tests pin the partition invariant down while a real engine
admits, chunk-prefills, decodes and preempts, and while an autoscaled drain
exports and preempts from both lists.  They also cover the boundary of
``prepare_decode``'s fit short-circuit: claims that exactly fit allocate
without preempting, and one page more falls through to the policy-ordered
pass.
"""

import copy

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    ContinuousBatchingScheduler,
    PagedKVCacheManager,
    Request,
    RequestState,
    SCHEDULING_PRESETS,
    SchedulingConfig,
    ServingEngine,
    get_policy,
    get_system,
    make_flash_crowd_workload,
    make_lognormal_workload,
)
from repro.serving.engine import EngineStepper

PAGE = 16


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


@pytest.fixture(scope="module")
def system():
    return get_system("qserve-w4a8kv4-chn")


def _check_partition(schedulers, requests):
    """Each list holds exactly its state's requests, in admission order, and
    every KV page belongs to exactly one running request (no prefix cache,
    so there are no shared pages)."""
    listed = {RequestState.PREFILLING: set(), RequestState.DECODING: set()}
    for sched in schedulers:
        for state, members in ((RequestState.PREFILLING, sched.prefilling),
                               (RequestState.DECODING, sched.decoding)):
            assert all(r.state is state for r in members)
            seqs = [r.admission_seq for r in members]
            assert seqs == sorted(set(seqs)), "list out of admission order"
            listed[state].update(id(r) for r in members)
        running = sched.prefilling + sched.decoding
        assert sched.num_running == len(running)
        assert [id(r) for r in sched.running] == [
            id(r) for r in sorted(running, key=lambda r: r.admission_seq)]
        kv = sched.kv_manager
        held = sum(kv.allocated_tokens_capacity(r.request_id)
                   for r in running) // PAGE
        assert kv.double_free_count == 0
        assert held == kv.used_pages
        assert kv.used_pages == kv.pages_allocated_total - kv.pages_freed_total
        assert all(kv.allocated_tokens_capacity(r.request_id) == 0
                   for r in sched.waiting)
    for state, ids in listed.items():
        assert ids == {id(r) for r in requests if r.state is state}


def test_partition_holds_through_engine_steps_with_preemption(llama7b, system):
    engine = ServingEngine(llama7b, A100, system, max_seq_len=2048)
    workload = make_lognormal_workload(60, arrival_rate=40.0, seed=3)
    stepper = EngineStepper(engine,
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            kv_capacity_bytes=0.5 * (1 << 30))
    stepper.submit(workload.requests)
    sched = stepper.scheduler
    both_busy = 0
    while stepper.step():
        _check_partition([sched], workload.requests)
        both_busy += bool(sched.prefilling and sched.decoding)
    assert sched.num_preemptions > 0
    assert both_busy > 0
    assert len(sched.finished) == len(workload.requests)


def test_partition_holds_across_autoscaled_drains(llama7b, system,
                                                  monkeypatch):
    workload = make_flash_crowd_workload(
        160, base_rate=4.0, spikes=((3.0, 8.0, 6.0),), prompt_len=1024,
        output_len=64, seed=7)
    schedulers = []
    calls = {"step": 0, "export_request": 0, "preempt": 0}

    def checked(owner, name):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            calls[name] += 1
            _check_partition(schedulers, workload.requests)
            return out
        monkeypatch.setattr(owner, name, wrapper)

    original_init = EngineStepper.__init__

    def tracked_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        schedulers.append(self.scheduler)
    monkeypatch.setattr(EngineStepper, "__init__", tracked_init)
    checked(EngineStepper, "step")
    # Without preemption in the scheduling config, drains are the only
    # callers of export_request and preempt on a non-disaggregated fleet.
    checked(ContinuousBatchingScheduler, "export_request")
    checked(ContinuousBatchingScheduler, "preempt")

    cluster = ClusterEngine(llama7b, A100, system, num_replicas=3,
                            max_seq_len=2048)
    result = cluster.serve(
        workload, max_num_seqs=32,
        scheduling=SchedulingConfig(chunked_prefill=True,
                                    prefill_chunk_size=64),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=3, interval_s=0.5,
            scale_up_queue_depth=1.0, up_cooldown_s=0.5, down_cooldown_s=1.0,
            scale_down_outstanding=40.0, provision_s=0.5))
    assert result.autoscale.num_scale_downs > 0
    assert calls["export_request"] > 0 and calls["preempt"] > 0
    assert calls["step"] > 0
    assert result.num_unserved == 0
    _check_partition(schedulers, workload.requests)


# ----------------------------------------------------------------------
# prepare_decode's fit short-circuit
# ----------------------------------------------------------------------
def _decode_batch(model, system, total_pages, decodes, policy="fcfs",
                  prefilling=None):
    """A preempting scheduler over exactly ``total_pages`` pages with the
    given ``(prompt_len, output_len)`` requests admitted and prefilled, plus
    an optional later-arriving request left mid-prefill."""
    probe = PagedKVCacheManager(model=model, system=system, capacity_bytes=0)
    kv = PagedKVCacheManager(model=model, system=system, page_size=PAGE,
                             capacity_bytes=(total_pages + 0.5)
                             * probe.bytes_per_token() * PAGE)
    assert kv.total_pages == total_pages
    sched = ContinuousBatchingScheduler(kv_manager=kv, max_num_seqs=8,
                                        policy=get_policy(policy),
                                        preemption=True)
    requests = [Request(request_id=i, prompt_len=p, output_len=o)
                for i, (p, o) in enumerate(decodes)]
    sched.submit(requests)
    assert len(sched.admit(now=0.0)) == len(requests)
    sched.complete_prefill(now=1.0)
    late = None
    if prefilling is not None:
        late = Request(request_id=len(requests), prompt_len=prefilling[0],
                       output_len=prefilling[1], arrival_time=1.5)
        sched.submit([late])
        assert sched.admit(now=2.0) == [late]
    return sched, requests, late


def test_fit_shortcut_exact_fit_preempts_nothing(llama7b, system):
    # Three decodes at a page boundary each need one fresh page; 6 pages are
    # held and exactly 3 are free.
    sched, requests, _ = _decode_batch(llama7b, system, 9, [(32, 64)] * 3)
    kv = sched.kv_manager
    assert kv.free_pages == 3
    batch = sched.prepare_decode()
    assert batch == requests
    assert sched.num_preemptions == 0
    assert kv.free_pages == 0
    assert all(kv.allocated_tokens_capacity(r.request_id) == 3 * PAGE
               for r in requests)


def test_fit_shortcut_one_page_short_preempts_policy_victim(llama7b, system):
    # Same claims with one page fewer, plus a later request mid-prefill:
    # the FCFS pass grants the two oldest decodes, then the third claim
    # evicts the lowest-priority unprotected request, the prefilling one.
    sched, requests, late = _decode_batch(llama7b, system, 10, [(32, 64)] * 3,
                                          prefilling=(32, 64))
    kv = sched.kv_manager
    assert kv.free_pages == 2
    batch = sched.prepare_decode()
    assert late.state is RequestState.PREEMPTED and late in sched.waiting
    assert sched.num_preemptions == 1
    assert batch == requests
    assert all(r.state is RequestState.DECODING for r in requests)
    assert kv.free_pages == 1  # the victim's 2 pages, minus the third claim


def test_fit_shortcut_one_page_short_follows_policy_order(llama7b, system):
    # Under SJF the claims are granted least-remaining-work first, so the
    # request left short (and preempting itself: no lower-priority request
    # is running) is the one with the most work left — the first admitted.
    sched, requests, _ = _decode_batch(llama7b, system, 8,
                                       [(32, 90), (32, 60), (32, 30)],
                                       policy="sjf")
    assert sched.kv_manager.free_pages == 2
    batch = sched.prepare_decode()
    assert requests[0].state is RequestState.PREEMPTED
    assert sched.num_preemptions == 1
    assert batch == [requests[2], requests[1]]


def test_fit_shortcut_claims_include_lookahead(llama7b, system):
    # 30-token contexts leave room in their second page for the next token
    # but not for a 2-token drafted block on top of it.
    sched, requests, _ = _decode_batch(llama7b, system, 9, [(30, 64)] * 3)
    kv = sched.kv_manager
    assert sched.prepare_decode() == requests
    assert kv.free_pages == 3  # the plain next token needs no fresh page
    assert sched.prepare_decode(lookahead=lambda r: 2) == requests
    assert sched.num_preemptions == 0
    assert kv.free_pages == 0  # 3 drafted-block claims, exactly fitting
    assert all(kv.allocated_tokens_capacity(r.request_id) == 3 * PAGE
               for r in requests)

    short, short_requests, _ = _decode_batch(llama7b, system, 8,
                                             [(30, 64)] * 3)
    assert short.prepare_decode(lookahead=lambda r: 2) == short_requests[:2]
    assert short_requests[2].state is RequestState.PREEMPTED


def test_removal_is_by_identity_not_equality(llama7b, system):
    sched, requests, _ = _decode_batch(llama7b, system, 9, [(32, 64)] * 2)
    twin = copy.copy(requests[1])  # equal fields, same admission position
    assert twin == requests[1] and twin is not requests[1]
    with pytest.raises(ValueError, match="not running"):
        sched.export_request(twin, now=2.0)
    assert sched.decoding == requests
    assert all(a is b for a, b in zip(sched.decoding, requests))
