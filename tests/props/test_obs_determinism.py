"""The observability determinism contract, end to end.

docs/OBSERVABILITY.md promises that two runs of the same ``(scenario,
seed)`` produce **byte-identical** trace JSONL and metrics exports.  This
is the whole value of `obs diff` as a regression tool, so it gets an
end-to-end check on a real (small) scenario, not just unit tests.
"""

import dataclasses

import pytest

from repro import obs
from repro.experiments.runner import run_before_after
from repro.experiments.scenarios import smoke_scenario


def _traced_run(seed):
    scenario = smoke_scenario(seed=seed)
    with obs.observed(manifest=scenario.manifest()) as rec:
        result, _ = run_before_after(scenario)
    return rec, result


def test_observation_does_not_change_the_run():
    """The live ledger's per-tick projection runs only under observation
    (it feeds a gauge); the run it observes must not notice."""
    scenario = smoke_scenario(seed=123)
    with obs.observed(manifest=scenario.manifest()):
        observed, observed_optimizer = run_before_after(scenario)
    plain, plain_optimizer = run_before_after(smoke_scenario(seed=123))
    for field in dataclasses.fields(observed):
        assert getattr(observed, field.name) == getattr(plain, field.name), field.name
    reconciliations = observed_optimizer.live_ledger.reconciliations
    assert any(entry.aligned for entry in reconciliations)
    assert reconciliations == plain_optimizer.live_ledger.reconciliations
    assert observed_optimizer.decision_counts() == plain_optimizer.decision_counts()


def test_same_seed_runs_export_identical_bytes():
    rec_a, result_a = _traced_run(seed=123)
    rec_b, result_b = _traced_run(seed=123)

    assert rec_a.sink.to_jsonl() == rec_b.sink.to_jsonl()
    assert rec_a.metrics.to_json() == rec_b.metrics.to_json()
    # The trace is not vacuous: real spans from every instrumented layer.
    names = {r["name"] for r in rec_a.sink.records if r["type"] == "span"}
    assert {"engine.controller.fire", "optimizer.tick", "costmodel.replay"} <= names
    # And the runs themselves agreed, manifest included.
    assert result_a.manifest == result_b.manifest
    assert result_a.savings_fraction == pytest.approx(result_b.savings_fraction)


def test_different_seed_changes_trace_but_not_shape():
    rec_a, _ = _traced_run(seed=123)
    rec_b, _ = _traced_run(seed=124)
    assert rec_a.sink.to_jsonl() != rec_b.sink.to_jsonl()
    # Same instrumentation points fire either way.
    names = lambda rec: {r["name"] for r in rec.sink.records if r["type"] == "span"}
    assert names(rec_a) == names(rec_b)
