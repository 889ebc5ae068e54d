"""Tests of the benchmark itself, at tiny workload sizes."""

import json
import os

import pytest

from simbench import run as bench
from simbench.results import request_digest
from simbench.tracing import LayerTracer, wrapped_targets
from simbench.workloads import WORKLOADS

#: Requests (chat: sessions) per trace for the tiny runs.
TINY = {"decode-backlog": 40, "chat-prefix-disagg": 4,
        "flash-crowd-autoscale": 60, "multi-model-swap": 60}


def _tiny_run(name, trace, tmp_path=None):
    lines = []
    result = bench.run(name, seed=3, seconds=0.0, trace=trace, import_s=0.0,
                       out_dir=None if tmp_path is None else str(tmp_path),
                       size=TINY[name], traces=2, log=lines.append)
    return result, "\n".join(lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, text = _tiny_run(name, trace=False)
    assert result["correct"], text
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * TINY[name]
    expected = {n: u for n, u, _, _ in bench.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name_, unit in expected.items():
        assert f"{name_}" in text and unit in text
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result, text = _tiny_run(name, trace=True, tmp_path=tmp_path)
    assert result["correct"], text
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        n: u for n, u, _ in bench.PER_LAYER}
    assert metrics["engine.step.calls"]["value"] > 0
    assert abs(metrics["gpu.ledger_residual_s"]["value"]) < 1e-6
    trace = json.loads((tmp_path / f"{name}-seed3.trace.json").read_text())
    assert trace["traceEvents"]


def test_traced_run_restores_every_wrapped_attribute():
    before = [(owner, attr, (owner.__dict__[attr] if isinstance(owner, type)
                             else getattr(owner, attr)))
              for owner, attr in wrapped_targets()]
    with pytest.raises(RuntimeError):
        with LayerTracer():
            for owner, attr, original in before:
                current = (owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr))
                assert current is not original
            raise RuntimeError("the run failed")
    _tiny_run("multi-model-swap", trace=True)
    for owner, attr, original in before:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, f"{owner}.{attr} still wrapped"


def test_request_digest_sees_every_timestamp_bit():
    spec = WORKLOADS["decode-backlog"]
    workload = spec.generate(20, 1)
    spec.serve(spec.build(), workload, 1)
    digest = request_digest(workload)
    request = workload.requests[7]
    request.finish_time *= 1 + 2**-52
    assert request_digest(workload) != digest


def test_benchmark_json_matches_the_metric_tables():
    root = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        assert json.load(handle) == bench.benchmark_spec()
