"""The benchmark's own test: every workload at its tiny size.

Each workload runs once untraced and twice traced.  Every metric that
BENCHMARK.json names must be present with its unit, the benchmark's
oracles must accept the outputs, and every work count must repeat exactly
between the two traced runs.  A traced run in which an expected layer
records no calls must fail.
"""

import json
from pathlib import Path

import pytest

from perfbench import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _assert_declared(result, declared):
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_reports_every_metric_and_repeats_its_counts(workload):
    plain = run.run_workload(workload, seed=3, seconds=0, trace=False, size="tiny")
    _assert_declared(plain, SPEC["end_to_end"])
    assert plain["correct"]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [run.run_workload(workload, seed=3, seconds=0, trace=True, size="tiny")
              for _ in range(2)]
    for result in traced:
        _assert_declared(result, SPEC["per_layer"])
        assert result["correct"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    first, second = (r["metrics"] for r in traced)
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert any(first[n]["value"] > 0 for n in counts if n.endswith(".calls"))


def test_traced_run_fails_loudly_when_an_expected_layer_records_no_calls():
    from perfbench import tracing, workloads

    job = workloads.Job("noop", call=lambda ctx: None, check=lambda record: None,
                        expects=("ifs.attractor_build",))
    wl = workloads.Workload("stub", [job], {})
    tracer = tracing.Tracer()
    with tracer.installed():
        done = run._run_pass(wl.jobs, tracer, traced=True)
    with pytest.raises(RuntimeError, match="zero calls of ifs.attractor_build"):
        run._layer_metrics(wl, [done], [tracer], tracing.Tracer())
