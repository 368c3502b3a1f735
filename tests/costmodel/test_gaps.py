"""Tests for the gap model (chained-arrival detection)."""

import pytest

from repro.costmodel.gaps import CHAIN_WINDOW_SECONDS, GapModel
from repro.warehouse.queries import QueryRecord

from tests.props.replay_oracle import classify_with_arrays as classify


def rec(template: str, arrival: float, duration: float, chained=False) -> QueryRecord:
    return QueryRecord(
        query_id=int(arrival * 10),
        warehouse="WH",
        text_hash=template + str(arrival),
        template_hash=template,
        arrival_time=arrival,
        start_time=arrival,
        end_time=arrival + duration,
        execution_seconds=duration,
        chained=chained,
        completed=True,
    )


def chain_history(n_chains: int = 5, lag: float = 5.0) -> list[QueryRecord]:
    """n repetitions of pipeline A -> B (B arrives `lag` after A ends)."""
    records = []
    for i in range(n_chains):
        t = i * 3600.0
        a = rec("A", t, 60.0)
        b = rec("B", t + 60.0 + lag, 30.0, chained=True)
        records += [a, b]
    return records


class TestFit:
    def test_learns_dependent_pairs(self):
        model = GapModel().fit(chain_history())
        assert model.is_dependent_pair("A".__str__(), "B") or model.is_dependent_pair("A", "B")

    def test_insufficient_support_not_dependent(self):
        model = GapModel().fit(chain_history(n_chains=2))
        assert not model.is_dependent_pair("A", "B")

    def test_far_apart_pairs_not_dependent(self):
        records = []
        for i in range(10):
            t = i * 3600.0
            records.append(rec("A", t, 10.0))
            records.append(rec("B", t + 2000.0, 10.0))
        model = GapModel().fit(records)
        assert not model.is_dependent_pair("A", "B")


class TestClassify:
    def test_flagged_records_classified_chained(self):
        model = GapModel().fit(chain_history())
        observations = classify(model, chain_history(1))
        assert [o.chained for o in observations] == [False, True]

    def test_detector_works_without_flags(self):
        history = [
            rec(t.template_hash, t.arrival_time, t.execution_seconds, chained=False)
            for t in chain_history()
        ]
        model = GapModel(use_flags=False).fit(history)
        observations = classify(model, history)
        chained = [o.chained for o in observations]
        assert sum(chained) == 5  # each B detected statistically

    def test_flags_ignored_when_disabled(self):
        # Flags say chained, but the pattern has no statistical support.
        lone = [rec("A", 0.0, 10.0), rec("B", 500.0, 10.0, chained=True)]
        model = GapModel(use_flags=False).fit(lone)
        observations = classify(model, lone)
        assert not observations[1].chained

    def test_lag_recorded(self):
        model = GapModel().fit(chain_history(lag=7.0))
        observations = classify(model, chain_history(1, lag=7.0))
        assert observations[1].lag_after_predecessor == pytest.approx(7.0)

    def test_flagged_chain_with_weird_lag_uses_learned_lag(self):
        model = GapModel().fit(chain_history(lag=5.0))
        # A flagged chained record arriving long after its predecessor ended
        # (e.g. the predecessor in telemetry is not its true parent).
        odd = [rec("A", 0.0, 60.0), rec("B", 500.0, 30.0, chained=True)]
        observations = classify(model, odd)
        assert observations[1].chained
        assert observations[1].lag_after_predecessor == pytest.approx(5.0)

    def test_first_record_never_chained(self):
        model = GapModel().fit(chain_history())
        observations = classify(model, [rec("B", 0.0, 10.0, chained=True)])
        assert not observations[0].chained

    def test_classification_sorted_by_arrival(self):
        model = GapModel().fit(chain_history())
        shuffled = chain_history(2)[::-1]
        observations = classify(model, shuffled)
        arrivals = [o.record.arrival_time for o in observations]
        assert arrivals == sorted(arrivals)
