"""Decision provenance, savings attribution, and the conservation invariant.

The load-bearing promise (docs/OBSERVABILITY.md §v3): per-decision
attributed credits sum **exactly** — bit for bit, no epsilon — to
``SavingsLedger.total_savings_credits()``.  These tests exercise the float
machinery adversarially and then check the invariant on a real run.
"""

import dataclasses
import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR, Window
from repro.core.monitoring import RealTimeFeedback
from repro.experiments.runner import run_before_after
from repro.experiments.scenarios import chaos_smoke_scenario, smoke_scenario
from repro.obs.manifest import config_hash
from repro.obs.provenance import (
    UNATTRIBUTED,
    AttributionLedger,
    CandidateEvaluation,
    DecisionContext,
    DecisionOutcome,
    DecisionRecord,
    ProvenanceLog,
    calibration_facts,
    split_exact,
)


class TestSplitExact:
    def test_empty_and_single(self):
        assert split_exact(5.0, []) == []
        assert split_exact(5.0, [3.0]) == [5.0]

    def test_proportionality(self):
        shares = split_exact(10.0, [1.0, 2.0, 3.0, 4.0])
        assert shares[0] == pytest.approx(1.0)
        assert shares[3] == pytest.approx(4.0)

    def test_zero_weights_fall_back_to_equal(self):
        shares = split_exact(9.0, [0.0, 0.0, 0.0])
        assert shares[0] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "total",
        [
            0.1 + 0.2,  # the classic non-representable sum
            -0.07318895758905697,  # a real negative ledger entry
            1e-17,
            -1e300,
            123456.789,
            0.0,
        ],
    )
    @pytest.mark.parametrize(
        "weights",
        [
            [600.0] * 7,
            [1e-9, 1e9, 3.0],
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            [7.0, 11.0],
        ],
    )
    def test_left_to_right_sum_is_exactly_total(self, total, weights):
        shares = split_exact(total, weights)
        assert len(shares) == len(weights)
        acc = 0.0
        for share in shares:
            acc += share
        assert acc == total  # exact float equality, on purpose

    def test_shares_stay_finite(self):
        for share in split_exact(1e308, [1.0, 1.0, 1.0]):
            assert math.isfinite(share)


def _record(seq, time, interval=1800.0, rate=None, **kw):
    defaults = dict(
        seq=seq,
        warehouse="WH",
        time=time,
        kind="learned",
        reason="r",
        reason_code="learned.keep",
        target="cfg",
        feedback_hash="ab",
        feedback={},
        admissible_actions=3,
        candidates=(),
        action_index=1,
        q_value=0.5,
        predicted_credits_per_hour=rate,
        predicted_avg_latency=None,
        safe_mode=False,
        breaker_state="closed",
        breaker_consecutive_failures=0,
        retries_scheduled=0,
        interval=interval,
    )
    defaults.update(kw)
    return DecisionRecord(**defaults)


class TestDecisionRecord:
    def test_window_uses_nominal_interval_until_sealed(self):
        record = _record(0, 100.0, interval=600.0)
        assert record.window == Window(100.0, 700.0)
        record.sealed = True
        record.sealed_until = 400.0
        assert record.window == Window(100.0, 400.0)

    def test_predicted_credits_scale_with_window(self):
        record = _record(0, 0.0, interval=1800.0, rate=2.0)
        assert record.predicted_credits == pytest.approx(1.0)  # 2 cr/h × 0.5h

    def test_prediction_error_requires_seal_and_prediction(self):
        record = _record(0, 0.0, rate=None)
        assert record.prediction_error_credits is None
        record = _record(0, 0.0, interval=3600.0, rate=2.0)
        assert record.prediction_error_credits is None  # not sealed yet
        record.sealed = True
        record.sealed_until = 3600.0
        record.realized_credits = 2.5
        assert record.prediction_error_credits == pytest.approx(0.5)

    def test_to_dict_is_json_shaped(self):
        record = _record(
            0, 0.0, candidates=(CandidateEvaluation(1, "a", 0.2, "chosen"),)
        )
        payload = record.to_dict()
        assert payload["schema"] == 1
        assert payload["candidates"][0]["verdict"] == "chosen"
        # Sealed fields never leak into the decision event payload.
        assert "realized_credits" not in payload


class TestProvenanceLogLifecycle:
    def _log(self):
        return ProvenanceLog("WH", decision_interval=1800.0)

    def _record_one(self, log, time, rate=None):
        context = DecisionContext(
            admissible_actions=2, predicted_credits_per_hour=rate
        )
        return log.record(
            time,
            kind="learned",
            reason="r",
            reason_code="learned.apply",
            target="cfg",
            feedback={"latency_ratio": 1.0},
            context=context,
            action_index=3,
            q_value=0.9,
            safe_mode=False,
            breaker_state="closed",
            breaker_consecutive_failures=0,
            retries_scheduled=0,
        )

    def _record_feedback(self, log, feedback):
        return log.record(
            0.0,
            kind="learned",
            reason="r",
            reason_code="learned.apply",
            target="cfg",
            feedback=feedback,
            context=DecisionContext(),
            action_index=None,
            q_value=None,
            safe_mode=False,
            breaker_state="closed",
            breaker_consecutive_failures=0,
            retries_scheduled=0,
        )

    def test_feedback_hash_is_the_config_hash(self):
        # Every field of a RealTimeFeedback is a scalar, so the record keeps
        # all of them, and its hash is the canonical hash of the feedback.
        feedback = RealTimeFeedback(
            time=600.0,
            queue_length=2,
            running_queries=1,
            recent_queries=9,
            recent_p99=12.5,
            latency_ratio=1.25,
            mean_queue_seconds=0.5,
            arrival_zscore=-0.75,
            unseen_template_fraction=0.1,
            external_change=False,
            telemetry_ok=False,
            telemetry_age_seconds=300.0,
        )
        record = self._record_feedback(self._log(), feedback)
        assert set(record.feedback) == {f.name for f in dataclasses.fields(feedback)}
        assert record.feedback_hash == config_hash(feedback)

    def test_feedback_hash_of_a_partly_kept_feedback(self):
        # A non-scalar field is left out of the record's field dict, but
        # the hash still covers the whole feedback.
        @dataclasses.dataclass(frozen=True)
        class Tagged:
            ratio: float
            tags: tuple = ("a", "b")

        record = self._record_feedback(self._log(), Tagged(1.5))
        assert record.feedback == {"ratio": 1.5}
        assert record.feedback_hash == config_hash(Tagged(1.5))
        assert record.feedback_hash != config_hash({"ratio": 1.5})

    @given(
        st.tuples(*(st.floats(allow_nan=True, allow_infinity=True) for _ in range(8))),
        st.tuples(*(st.integers(-(2**40), 2**40) for _ in range(3))),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_feedback_hash_matches_config_hash_on_any_floats(self, floats, ints, external, ok):
        # NaN and the infinities go through the same JSON spelling either way.
        feedback = RealTimeFeedback(
            time=floats[0],
            queue_length=ints[0],
            running_queries=ints[1],
            recent_queries=ints[2],
            recent_p99=floats[1],
            latency_ratio=floats[2],
            mean_queue_seconds=floats[3],
            arrival_zscore=floats[4],
            unseen_template_fraction=floats[5],
            external_change=external,
            baseline_ratio_q99=floats[6],
            spill_fraction=floats[7],
            telemetry_ok=ok,
        )
        record = self._record_feedback(self._log(), feedback)
        assert record.feedback_hash == config_hash(feedback)

    def test_feedback_hash_falls_back_for_enum_and_dict_feedback(self):
        # An int-valued enum field is kept in the field dict, but the hash
        # canonicalises it to its value, which need not be the int; a plain
        # dict hashes by its string keys.
        class Level(int, enum.Enum):
            def __new__(cls, number, label):
                member = int.__new__(cls, number)
                member._value_ = label
                return member

            LOW = (1, "low")

        @dataclasses.dataclass(frozen=True)
        class Leveled:
            level: Level
            ratio: float = math.nan

        for feedback in (Leveled(Level.LOW), {"latency_ratio": math.inf, "n": 3}):
            record = self._record_feedback(self._log(), feedback)
            assert record.feedback_hash == config_hash(feedback)

    def test_seal_until_is_strict_and_incremental(self):
        log = self._log()
        self._record_one(log, 0.0, rate=2.0)
        self._record_one(log, 1800.0)
        outcomes = []

        def outcome_fn(window):
            outcomes.append(window)
            return DecisionOutcome(credits=1.5, p99_latency=4.0, n_queries=7)

        assert log.seal_until(1800.0, outcome_fn) == 1  # strict <, not <=
        assert outcomes == [Window(0.0, 1800.0)]
        first = log.records[0]
        assert first.sealed and first.realized_credits == 1.5
        assert first.realized_queries == 7
        assert not log.records[1].sealed
        # Sealing again does not re-seal already-sealed records.
        assert log.seal_until(2000.0, outcome_fn) == 1
        assert outcomes[-1] == Window(1800.0, 2000.0)  # truncated at `now`

    def test_note_apply_lands_on_latest_record(self):
        log = self._log()
        self._record_one(log, 0.0)
        self._record_one(log, 1800.0)
        log.note_apply(False, "boom")
        assert log.records[0].applied is None
        assert log.records[1].applied is False
        assert log.records[1].apply_error == "boom"

    def test_summary_reports_conservation(self):
        log = self._log()
        self._record_one(log, 0.0)
        log.attribution.attribute(Window(0.0, 1800.0), 2.5, log.records)
        summary = log.summary(ledger_credits=2.5)
        assert summary.conserved
        assert summary.n_decisions == 1
        assert summary.decision_kinds == {"learned": 1}


class TestAttributionLedger:
    def test_overlap_weighted_split_conserves(self):
        ledger = AttributionLedger("WH")
        records = [_record(0, 0.0, interval=600.0), _record(1, 600.0, interval=600.0)]
        entry = ledger.attribute(Window(0.0, 900.0), 0.1 + 0.2, records)
        # Decision 0 overlaps 600s, decision 1 overlaps 300s.
        assert [s.decision_seq for s in entry.shares] == [0, 1]
        assert entry.shares[0].overlap_seconds == 600.0
        assert entry.shares[1].overlap_seconds == 300.0
        assert entry.attributed_total() == 0.1 + 0.2

    def test_no_overlap_yields_unattributed_share(self):
        ledger = AttributionLedger("WH")
        entry = ledger.attribute(Window(0.0, 600.0), 1.25, [_record(0, 9000.0)])
        assert [s.decision_seq for s in entry.shares] == [UNATTRIBUTED]
        assert entry.attributed_total() == 1.25

    def test_total_matches_ledger_accumulation_order(self):
        ledger = AttributionLedger("WH")
        credits = [0.1, 0.2, -0.07318895758905697, 1e-17]
        for i, c in enumerate(credits):
            ledger.attribute(
                Window(i * 600.0, (i + 1) * 600.0),
                c,
                [_record(i, i * 600.0, interval=600.0)],
            )
        expected = 0.0
        for c in credits:
            expected += c
        assert ledger.total_attributed_credits() == expected

    def test_per_decision_credits_cover_all_shares(self):
        ledger = AttributionLedger("WH")
        records = [_record(0, 0.0, interval=600.0), _record(1, 600.0, interval=600.0)]
        ledger.attribute(Window(0.0, 1200.0), 3.0, records)
        ledger.attribute(Window(1200.0, 1800.0), 1.0, records)  # no overlap
        shares = [share for entry in ledger.entries for share in entry.shares]
        assert {share.decision_seq for share in shares} == {0, 1, UNATTRIBUTED}
        assert [
            share.credits for share in shares if share.decision_seq == UNATTRIBUTED
        ] == [1.0]


class TestCalibrationFacts:
    def test_empty(self):
        facts = calibration_facts([])
        assert facts["n_sealed"] == 0
        assert facts["n_with_prediction"] == 0
        assert facts["mean_abs_error_credits"] == 0.0
        assert facts["mean_error_credits"] == 0.0

    def test_means_over_predicted_records_only(self):
        sealed_predicted = _record(0, 0.0, interval=3600.0, rate=1.0)
        sealed_predicted.sealed = True
        sealed_predicted.sealed_until = 3600.0
        sealed_predicted.realized_credits = 1.5
        sealed_blind = _record(1, 3600.0)
        sealed_blind.sealed = True
        sealed_blind.sealed_until = 7200.0
        sealed_blind.realized_credits = 9.0
        facts = calibration_facts(
            (r.realized_credits, r.predicted_credits, r.prediction_error_credits)
            for r in (sealed_predicted, sealed_blind)
        )
        assert facts["n_sealed"] == 2
        assert facts["n_with_prediction"] == 1
        assert facts["mean_error_credits"] == pytest.approx(0.5)
        assert facts["mean_abs_error_credits"] == pytest.approx(0.5)
        assert facts["total_predicted_credits"] == pytest.approx(1.0)
        assert facts["total_realized_credits"] == pytest.approx(10.5)

    def test_accumulates_left_to_right(self):
        # Compensated summation (``sum()`` of floats since Python 3.12)
        # gives 1.0 here; the fold must give the plain ``+=`` result.
        errors = [0.1] * 10
        expected = 0.0
        for error in errors:
            expected += error
        facts = calibration_facts((1.0, 1.0, error) for error in errors)
        assert facts["sum_error_credits"] == expected == 0.9999999999999999
        assert facts["sum_abs_error_credits"] == expected
        assert facts["mean_error_credits"] == expected / 10


class TestConservationOnRealRuns:
    def test_smoke_run_conserves_and_records_every_tick(self):
        result, optimizer = run_before_after(smoke_scenario(seed=11))
        log = optimizer.provenance
        assert len(log.records) == len(optimizer.decisions)
        # The conservation invariant: exact float equality, no approx.
        assert (
            log.attribution.total_attributed_credits()
            == optimizer.ledger.total_savings_credits()
        )
        assert result.attribution is not None
        assert result.attribution.conserved
        # Every record carries a typed reason code.
        assert all(r.reason_code for r in log.records)
        # Shutdown sealed everything except (at most) the final tick.
        assert sum(r.sealed for r in log.records) >= len(log.records) - 1

    def test_chaos_run_conserves_and_calibrates(self):
        result, optimizer = run_before_after(chaos_smoke_scenario(seed=5))
        log = optimizer.provenance
        assert (
            log.attribution.total_attributed_credits()
            == optimizer.ledger.total_savings_credits()
        )
        # What-ifs were checked against reality.
        assert any(r.prediction_error_credits is not None for r in log.records)
        codes = sorted({r.reason_code for r in log.records})
        assert any(c.startswith("learned.") for c in codes)
