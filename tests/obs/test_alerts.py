"""Unit tests for the alert lifecycle manager."""

import pytest

from repro.obs import (
    NULL_ALERTS,
    ObservabilityError,
    Recorder,
)


def events(rec, name):
    return [r for r in rec.sink.records if r.get("type") == "event" and r["name"] == name]


class TestLifecycle:
    def test_fire_emits_event_and_counter(self):
        rec = Recorder()
        assert rec.alerts.fire("optimizer.backoff.wh", 100.0, severity="warning") is True
        assert rec.alerts.is_active("optimizer.backoff.wh")
        (fire,) = events(rec, "alert.fire")
        assert fire["time"] == 100.0
        assert fire["attrs"]["alert"] == "optimizer.backoff.wh"
        assert fire["attrs"]["severity"] == "warning"
        assert rec.metrics.counter("repro.alerts.fired").value == 1.0

    def test_refire_deduplicates(self):
        rec = Recorder()
        rec.alerts.fire("optimizer.backoff.wh", 100.0)
        assert rec.alerts.fire("optimizer.backoff.wh", 200.0) is False
        assert len(events(rec, "alert.fire")) == 1  # no event spam
        rec.alerts.resolve("optimizer.backoff.wh", 300.0)
        (resolve,) = events(rec, "alert.resolve")
        assert resolve["attrs"]["refires"] == 1
        assert resolve["attrs"]["duration"] == 200.0

    def test_resolve_without_fire_is_a_noop(self):
        rec = Recorder()
        assert rec.alerts.resolve("optimizer.backoff.wh", 100.0) is False
        assert events(rec, "alert.resolve") == []

    def test_set_state_tracks_condition_edges(self):
        rec = Recorder()
        for t, firing in [(0.0, False), (10.0, True), (20.0, True), (30.0, False)]:
            rec.alerts.set_state("optimizer.spike.wh", firing, t, severity="info")
        assert len(events(rec, "alert.fire")) == 1
        assert len(events(rec, "alert.resolve")) == 1
        assert not rec.alerts.is_active("optimizer.spike.wh")

    def test_invalid_name_rejected(self):
        with pytest.raises(ObservabilityError):
            Recorder().alerts.fire("NotDotted", 0.0)

    def test_unknown_severity_rejected(self):
        with pytest.raises(ObservabilityError):
            Recorder().alerts.fire("a.b", 0.0, severity="page")


class TestQueriesAndExport:
    def test_active_is_name_sorted(self):
        rec = Recorder()
        rec.alerts.fire("z.alert", 1.0)
        rec.alerts.fire("a.alert", 2.0)
        assert [a.name for a in rec.alerts.active()] == ["a.alert", "z.alert"]

    def test_active_carries_the_refire_count(self):
        # The one lifecycle fact no trace event holds until the resolve.
        rec = Recorder()
        rec.alerts.fire("a.alert", 1.0, severity="critical")
        rec.alerts.fire("a.alert", 2.0)
        (active,) = rec.alerts.active()
        assert (active.severity, active.fired_at, active.refires) == ("critical", 1.0, 1)


class TestNullPath:
    def test_null_manager_absorbs_everything(self):
        assert NULL_ALERTS.fire("a.b", 0.0) is False
        assert NULL_ALERTS.resolve("a.b", 0.0) is False
        NULL_ALERTS.set_state("a.b", True, 0.0)
        assert NULL_ALERTS.is_active("a.b") is False

    def test_module_level_accessor_returns_null_when_disabled(self):
        from repro.obs import trace

        assert trace.alerts() is NULL_ALERTS
