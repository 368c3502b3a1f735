"""Decision provenance and savings attribution (docs/OBSERVABILITY.md §v3).

The paper's product is only trusted because customers can *see* what KWO
did and what it bought them (§4.1): every resize/suspend is auditable and
the savings number decomposes into the actions that earned it.  This
module is that audit trail for the reproduction:

* every optimizer tick produces a :class:`DecisionRecord` — the telemetry
  snapshot (hashed + feature values), the candidate actions the smart
  model weighed with the cost model's what-if predictions, the chosen
  action with a *typed* reason code, and the actuation health state
  (safe mode, circuit breaker, retries);
* one decision interval later the record is **sealed** with the realized
  outcome — credits actually billed and the p99 actually served over the
  interval, plus the actuator's read-back result — so each record carries
  its own predicted-vs-realized error (the paper's C2 claim, per tick);
* every :class:`~repro.core.ledger.SavingsLedger` entry is **attributed**
  across the decisions active in its window.  The split is exact: the
  per-decision shares of one entry sum (in float arithmetic) to exactly
  that entry's ``savings_credits``, and :meth:`AttributionLedger.
  total_attributed_credits` reproduces ``SavingsLedger.
  total_savings_credits()`` to the last bit (conservation invariant,
  tested in ``tests/obs/test_provenance.py``).

Everything here is deterministic plain data (floats, strings, dicts):
records are built from values the caller already computed, never from
fresh client reads, so enabling provenance cannot perturb a run.  When an
observation session is active the lifecycle is mirrored into the trace as
``provenance.decision`` / ``provenance.outcome`` / ``provenance.attribution``
events, which is what makes provenance travel through
:class:`~repro.obs.stream.PayloadChunkMerger` byte-identically under
``repro.parallel`` and lets ``repro.cli obs decisions|attribution`` and
the fleet store (:mod:`repro.obs.store`) work from a trace file alone.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from repro.common.errors import RecoveryError
from repro.common.simtime import Window
from repro.obs import trace as obs
from repro.obs.manifest import canonical_hash, config_hash

#: Bumped on any incompatible change to the provenance record shapes.
PROVENANCE_SCHEMA_VERSION = 1

#: ``decision_seq`` of the synthetic share that absorbs savings earned in a
#: ledger window no recorded decision overlaps (e.g. pre-onboarding time).
UNATTRIBUTED = -1


@dataclass(frozen=True)
class CandidateEvaluation:
    """One action the smart model weighed during a tick.

    ``predicted_credits_per_hour`` / ``predicted_avg_latency`` come from the
    cost model's guardrail what-if replay; they are ``None`` for candidates
    the guardrail never priced (skipped by dwell/quiet gating).
    """

    action_index: int
    action: str
    q_value: float
    verdict: str  # "chosen" | "vetoed" | "dwell" | "quiet" | "not_reached"
    predicted_credits_per_hour: float | None = None
    predicted_avg_latency: float | None = None

    def to_dict(self) -> dict:
        return {
            "action_index": self.action_index,
            "action": self.action,
            "q_value": self.q_value,
            "verdict": self.verdict,
            "predicted_credits_per_hour": self.predicted_credits_per_hour,
            "predicted_avg_latency": self.predicted_avg_latency,
        }


@dataclass
class DecisionContext:
    """What the smart model saw and priced while choosing, for one tick.

    Returned by :meth:`repro.core.smart_model.SmartModel.next_action`
    beside its decision, filled from work it already does (the guardrail
    replays); the optimizer copies it into the :class:`DecisionRecord`.
    Each call builds its own context, and ticks that price nothing
    (reflex decisions, degraded or dark-telemetry holds) record an empty
    one.
    """

    admissible_actions: int = 0
    candidates: list[CandidateEvaluation] = field(default_factory=list)
    #: What-if prediction for the *chosen* target, as a credits rate — the
    #: guardrail window and the decision interval differ, so the rate is
    #: the comparable unit.  ``None`` when no replay priced the target
    #: (backoffs, constraint floors, degraded ticks).
    predicted_credits_per_hour: float | None = None
    predicted_avg_latency: float | None = None


@dataclass(frozen=True)
class DecisionOutcome:
    """The realized world over one sealed decision window."""

    credits: float
    p99_latency: float
    n_queries: int


@dataclass
class DecisionRecord:
    """One optimizer tick, from proposal to realized outcome.

    Created open (``sealed=False``) at decision time; sealed one tick
    later (or at shutdown) with the realized outcome over
    ``[time, sealed_until)``.
    """

    seq: int
    warehouse: str
    time: float
    kind: str
    reason: str
    reason_code: str
    target: str
    feedback_hash: str
    feedback: dict
    admissible_actions: int
    candidates: tuple[CandidateEvaluation, ...]
    action_index: int | None
    q_value: float | None
    predicted_credits_per_hour: float | None
    predicted_avg_latency: float | None
    safe_mode: bool
    breaker_state: str
    breaker_consecutive_failures: int
    retries_scheduled: int
    interval: float
    #: Filled by :meth:`ProvenanceLog.note_apply` when the actuator ran.
    applied: bool | None = None
    apply_error: str = ""
    # Sealed fields:
    sealed: bool = False
    sealed_until: float | None = None
    realized_credits: float | None = None
    realized_p99: float | None = None
    realized_queries: int = 0

    @property
    def window(self) -> Window:
        """The sim-time span this decision governed.

        Unsealed records use the nominal decision interval — attribution
        must be able to weight the final (never-sealed) tick too.
        """
        end = self.sealed_until if self.sealed_until is not None else self.time + self.interval
        return Window(self.time, max(end, self.time))

    @property
    def predicted_credits(self) -> float | None:
        """The what-if prediction scaled to this record's actual window."""
        if self.predicted_credits_per_hour is None:
            return None
        return self.predicted_credits_per_hour * self.window.duration / 3600.0

    @property
    def prediction_error_credits(self) -> float | None:
        """Realized minus predicted credits (positive = cost more)."""
        predicted = self.predicted_credits
        if not self.sealed or predicted is None or self.realized_credits is None:
            return None
        return self.realized_credits - predicted

    def to_dict(self) -> dict:
        return {
            "schema": PROVENANCE_SCHEMA_VERSION,
            "seq": self.seq,
            "warehouse": self.warehouse,
            "time": self.time,
            "kind": self.kind,
            "reason": self.reason,
            "reason_code": self.reason_code,
            "target": self.target,
            "feedback_hash": self.feedback_hash,
            "feedback": dict(self.feedback),
            "admissible_actions": self.admissible_actions,
            "candidates": [c.to_dict() for c in self.candidates],
            "action_index": self.action_index,
            "q_value": self.q_value,
            "predicted_credits_per_hour": self.predicted_credits_per_hour,
            "predicted_avg_latency": self.predicted_avg_latency,
            "safe_mode": self.safe_mode,
            "breaker_state": self.breaker_state,
            "breaker_consecutive_failures": self.breaker_consecutive_failures,
            "retries_scheduled": self.retries_scheduled,
            "interval": self.interval,
        }


# ----------------------------------------------------------------- durability
# Plain dict codecs (obs sits below repro.durability in the layer contract,
# so the StateCodec protocol itself is not imported here — the shapes match).


def encode_record(record: DecisionRecord) -> dict:
    """Full round-trip encoding of one record — unlike :meth:`to_dict`,
    includes the apply result and the sealed outcome fields."""
    state = record.to_dict()
    state.update(
        {
            "applied": record.applied,
            "apply_error": record.apply_error,
            "sealed": record.sealed,
            "sealed_until": record.sealed_until,
            "realized_credits": record.realized_credits,
            "realized_p99": record.realized_p99,
            "realized_queries": record.realized_queries,
        }
    )
    return state


def decode_record(state: dict) -> DecisionRecord:
    return DecisionRecord(
        seq=int(state["seq"]),
        warehouse=state["warehouse"],
        time=float(state["time"]),
        kind=state["kind"],
        reason=state["reason"],
        reason_code=state["reason_code"],
        target=state["target"],
        feedback_hash=state["feedback_hash"],
        feedback=dict(state["feedback"]),
        admissible_actions=int(state["admissible_actions"]),
        candidates=tuple(
            CandidateEvaluation(
                action_index=int(c["action_index"]),
                action=c["action"],
                q_value=float(c["q_value"]),
                verdict=c["verdict"],
                predicted_credits_per_hour=c["predicted_credits_per_hour"],
                predicted_avg_latency=c["predicted_avg_latency"],
            )
            for c in state["candidates"]
        ),
        action_index=state["action_index"],
        q_value=state["q_value"],
        predicted_credits_per_hour=state["predicted_credits_per_hour"],
        predicted_avg_latency=state["predicted_avg_latency"],
        safe_mode=bool(state["safe_mode"]),
        breaker_state=state["breaker_state"],
        breaker_consecutive_failures=int(state["breaker_consecutive_failures"]),
        retries_scheduled=int(state["retries_scheduled"]),
        interval=float(state["interval"]),
        applied=state["applied"],
        apply_error=state["apply_error"],
        sealed=bool(state["sealed"]),
        sealed_until=state["sealed_until"],
        realized_credits=state["realized_credits"],
        realized_p99=state["realized_p99"],
        realized_queries=int(state["realized_queries"]),
    )


def split_exact(total: float, weights: list[float]) -> list[float]:
    """Split ``total`` into shares proportional to ``weights`` such that the
    left-to-right float sum of the shares is **exactly** ``total``.

    Proportionality is approximate (floats); conservation is not.  The
    last share absorbs the rounding residue, nudged by up to a few ulps so
    that ``fl(sum(shares))`` — the same left-to-right accumulation the
    ledger uses — reproduces ``total`` bit-for-bit.  For some prefixes no
    last share can land exactly on ``total`` (round-to-even can make it
    skip over the target), in which case a prefix share is perturbed by an
    ulp and the landing retried; the unconditional fallback degenerates to
    ``[total, 0, 0, ...]``, which conserves trivially.
    """
    n = len(weights)
    if n == 0:
        return []
    if n == 1:
        return [total]
    weight_sum = sum(weights)
    if not weight_sum > 0:
        weights = [1.0] * n
        weight_sum = float(n)
    prefix = [total * (w / weight_sum) for w in weights[:-1]]
    for attempt in range(64):
        acc = 0.0
        for share in prefix:
            acc += share
        # fl(acc + last) == total is not guaranteed by the subtraction
        # alone; walk `last` (by the residual, then by ulps when the
        # residual is below ulp resolution) toward the target.
        last = total - acc
        for _ in range(8):
            s = acc + last
            if s == total:
                return prefix + [last]
            bumped = last + (total - s)
            if bumped == last:
                bumped = math.nextafter(last, math.inf if total > s else -math.inf)
            last = bumped
        # Unreachable with this prefix: move one prefix share by an ulp
        # (cycling right to left, alternating direction) and retry.
        j = (len(prefix) - 1) - (attempt % len(prefix))
        direction = math.inf if attempt % 2 else -math.inf
        prefix[j] = math.nextafter(prefix[j], direction)
    return [total] + [0.0] * (n - 1)


@dataclass(frozen=True)
class AttributionShare:
    """One decision's slice of one ledger entry's savings."""

    decision_seq: int  # UNATTRIBUTED for the no-decision residual share
    overlap_seconds: float
    credits: float

    def to_dict(self) -> dict:
        return {
            "decision_seq": self.decision_seq,
            "overlap_seconds": self.overlap_seconds,
            "credits": self.credits,
        }


@dataclass(frozen=True)
class AttributionEntry:
    """One ledger entry, split across the decisions active in its window."""

    window_start: float
    window_end: float
    savings_credits: float
    shares: tuple[AttributionShare, ...]

    def attributed_total(self) -> float:
        """Left-to-right float sum of the shares — exactly
        ``savings_credits`` by construction (:func:`split_exact`)."""
        acc = 0.0
        for share in self.shares:
            acc += share.credits
        return acc

    def to_dict(self) -> dict:
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "savings_credits": self.savings_credits,
            "shares": [s.to_dict() for s in self.shares],
        }


class AttributionLedger:
    """Per-decision savings attribution for one warehouse.

    Mirrors the :class:`~repro.core.ledger.SavingsLedger` entry by entry;
    the conservation invariant is that :meth:`total_attributed_credits`
    equals ``SavingsLedger.total_savings_credits()`` exactly — same
    floats, same accumulation order, no epsilon.
    """

    def __init__(self, warehouse: str):
        self.warehouse = warehouse
        self.entries: list[AttributionEntry] = []

    def attribute(
        self, window: Window, savings_credits: float, decisions: list[DecisionRecord]
    ) -> AttributionEntry:
        """Split one reported period's savings across the decisions whose
        governed windows overlap it, weighted by overlap seconds.

        ``decisions`` are one log's records: in time order, one ``interval``,
        each governing a window inside ``[time, time + interval]``.  Those
        with ``time >= window.end`` or ``time + interval <= window.start``
        overlap by exactly ``0.0``; bisection skips both runs.
        """
        hi = bisect_left(decisions, window.end, key=lambda d: d.time)
        lo = bisect_right(decisions, window.start, hi=hi, key=lambda d: d.time + d.interval)
        active = [
            (d, overlap)
            for d in decisions[lo:hi]
            if (overlap := window.overlap(d.window)) > 0
        ]
        if active:
            shares = split_exact(savings_credits, [overlap for _, overlap in active])
            rows = tuple(
                AttributionShare(d.seq, overlap, credit)
                for (d, overlap), credit in zip(active, shares)
            )
        else:
            rows = (AttributionShare(UNATTRIBUTED, window.duration, savings_credits),)
        entry = AttributionEntry(window.start, window.end, savings_credits, rows)
        self.entries.append(entry)
        obs.emit(
            "provenance.attribution",
            window.end,
            warehouse=self.warehouse,
            window_start=window.start,
            window_end=window.end,
            savings_credits=savings_credits,
            shares=[s.to_dict() for s in rows],
        )
        return entry

    def total_attributed_credits(self) -> float:
        """Sum of per-entry attributed totals, accumulated entry by entry —
        the exact float-add sequence ``total_savings_credits()`` performs
        over ``savings_credits`` (each entry's own shares sum to its
        savings exactly, so the outer sums see identical addends)."""
        total = 0.0
        for entry in self.entries:
            total += entry.attributed_total()
        return total

    # ----------------------------------------------------------- durability
    @staticmethod
    def encode_entry(entry: AttributionEntry) -> dict:
        return entry.to_dict()

    @staticmethod
    def decode_entry(state: dict) -> AttributionEntry:
        return AttributionEntry(
            window_start=float(state["window_start"]),
            window_end=float(state["window_end"]),
            savings_credits=float(state["savings_credits"]),
            shares=tuple(
                AttributionShare(
                    decision_seq=int(s["decision_seq"]),
                    overlap_seconds=float(s["overlap_seconds"]),
                    credits=float(s["credits"]),
                )
                for s in state["shares"]
            ),
        )


class ProvenanceLog:
    """The decision audit trail of one optimizer.

    Always on (like ``optimizer.decisions``): records accumulate in memory
    for fleet summaries whether or not an observation session is active;
    the trace events are emitted only when one is.
    """

    def __init__(self, warehouse: str, decision_interval: float):
        self.warehouse = warehouse
        self.decision_interval = decision_interval
        self.records: list[DecisionRecord] = []
        self.attribution = AttributionLedger(warehouse)
        self._unsealed_from = 0

    # --------------------------------------------------------------- record
    def record(
        self,
        time: float,
        *,
        kind: str,
        reason: str,
        reason_code: str,
        target: str,
        feedback: object,
        context: DecisionContext,
        action_index: int | None,
        q_value: float | None,
        safe_mode: bool,
        breaker_state: str,
        breaker_consecutive_failures: int,
        retries_scheduled: int,
    ) -> DecisionRecord:
        """Open a provenance record for the decision just taken."""
        feedback_fields = _feedback_fields(feedback)
        record = DecisionRecord(
            seq=len(self.records),
            warehouse=self.warehouse,
            time=time,
            kind=kind,
            reason=reason,
            reason_code=reason_code,
            target=target,
            feedback_hash=_feedback_hash(feedback, feedback_fields),
            feedback=feedback_fields,
            admissible_actions=context.admissible_actions,
            candidates=tuple(context.candidates),
            action_index=action_index,
            q_value=q_value,
            predicted_credits_per_hour=context.predicted_credits_per_hour,
            predicted_avg_latency=context.predicted_avg_latency,
            safe_mode=safe_mode,
            breaker_state=breaker_state,
            breaker_consecutive_failures=breaker_consecutive_failures,
            retries_scheduled=retries_scheduled,
            interval=self.decision_interval,
        )
        self.records.append(record)
        attrs = record.to_dict()
        # The event row already carries the sim time; keeping the duplicate
        # key would collide with emit()'s positional argument.
        attrs.pop("time", None)
        obs.emit("provenance.decision", time, **attrs)
        return record

    def note_apply(self, succeeded: bool, error: str) -> None:
        """Attach the actuator's read-back result to the latest record."""
        if self.records:
            self.records[-1].applied = succeeded
            self.records[-1].apply_error = error

    # ----------------------------------------------------------------- seal
    def seal_until(self, now: float, outcome_fn) -> int:
        """Seal every open record that ended strictly before ``now``.

        ``outcome_fn(window) -> DecisionOutcome`` reads the realized world
        for a record's governed window; the optimizer supplies a reader
        over the account-side billing meter and telemetry ground truth so
        sealing never issues vendor-client calls (which would perturb
        overhead accounting and fault-plan randomness).
        """
        sealed = 0
        for i in range(self._unsealed_from, len(self.records)):
            record = self.records[i]
            if record.time >= now:
                break
            end = min(record.time + record.interval, now)
            window = Window(record.time, end)
            outcome = outcome_fn(window)
            record.sealed = True
            record.sealed_until = end
            record.realized_credits = outcome.credits
            record.realized_p99 = outcome.p99_latency
            record.realized_queries = outcome.n_queries
            self._unsealed_from = i + 1
            sealed += 1
            obs.emit(
                "provenance.outcome",
                end,
                warehouse=self.warehouse,
                seq=record.seq,
                window_start=window.start,
                window_end=end,
                realized_credits=outcome.credits,
                realized_p99=outcome.p99_latency,
                realized_queries=outcome.n_queries,
                predicted_credits=record.predicted_credits,
                error_credits=record.prediction_error_credits,
                applied=record.applied,
                apply_error=record.apply_error,
            )
        return sealed

    # ----------------------------------------------------------- durability
    @property
    def unsealed_from(self) -> int:
        """Index below which every record is sealed and immutable."""
        return self._unsealed_from

    def state_dict(self) -> dict:
        """The sealed mark.  The records and the attribution entries are
        append-only logs; the optimizer's checkpoint carries them."""
        return {"unsealed_from": self._unsealed_from}

    def load_state_dict(self, state: dict) -> None:
        """Restore the sealed mark over records already loaded."""
        unsealed_from = int(state["unsealed_from"])
        if not 0 <= unsealed_from <= len(self.records):
            raise RecoveryError(
                f"provenance sealed mark {unsealed_from} is outside its "
                f"{len(self.records)} records"
            )
        self._unsealed_from = unsealed_from

    # ------------------------------------------------------------ reporting
    def summary(self, ledger_credits: float) -> "AttributionSummary":
        """A picklable fleet-rollup row (crosses process pools)."""
        attributed = self.attribution.total_attributed_credits()
        calibration = calibration_facts(
            (r.realized_credits, r.predicted_credits, r.prediction_error_credits)
            for r in self.records
            if r.sealed
        )
        kinds: dict[str, int] = {}
        for record in self.records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        return AttributionSummary(
            warehouse=self.warehouse,
            n_decisions=len(self.records),
            n_sealed=calibration["n_sealed"],
            n_entries=len(self.attribution.entries),
            attributed_credits=attributed,
            ledger_credits=ledger_credits,
            conserved=attributed == ledger_credits,
            mean_abs_error_credits=calibration["mean_abs_error_credits"],
            decision_kinds=dict(sorted(kinds.items())),
        )


def _feedback_fields(feedback: object) -> dict:
    """The telemetry snapshot's scalar fields as a plain sorted dict."""
    fields = getattr(feedback, "__dataclass_fields__", None)
    if fields is None:
        return dict(feedback) if isinstance(feedback, dict) else {}
    out = {}
    for name in sorted(fields):
        value = getattr(feedback, name)
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[name] = value
    return out


def _feedback_hash(feedback: object, kept: dict) -> str:
    """``config_hash(feedback)``, hashed from :func:`_feedback_fields`'
    dict when that holds every field as a value canonicalisation keeps."""
    if (
        dataclasses.is_dataclass(feedback)
        and kept.keys() == {f.name for f in dataclasses.fields(feedback)}
        and not any(isinstance(value, enum.Enum) for value in kept.values())
    ):
        return canonical_hash(kept)
    return config_hash(feedback)


def calibration_facts(
    outcomes: Iterable[tuple[float, float | None, float | None]],
) -> dict:
    """How well the cost model's what-ifs predicted reality (claim C2).

    ``outcomes`` are sealed decision outcomes in seal order, each as
    ``(realized_credits, predicted_credits, error_credits)``, with
    ``error_credits`` ``None`` when no what-if priced the decision.  The
    one fold behind the live summary, the fleet store and the run report:
    every total accumulates left to right with ``+=`` from ``0.0``, so all
    three report the same floats for the same run.  The means are taken
    over the predicted outcomes only; the signed error is positive when
    the realized cost was higher.
    """
    n_sealed = n_with_prediction = 0
    sum_abs_error = sum_error = total_predicted = total_realized = 0.0
    for realized, predicted, error in outcomes:
        n_sealed += 1
        total_realized += realized
        if error is not None:
            n_with_prediction += 1
            sum_abs_error += abs(error)
            sum_error += error
            total_predicted += predicted
    n = n_with_prediction
    return {
        "n_sealed": n_sealed,
        "n_with_prediction": n_with_prediction,
        "sum_abs_error_credits": sum_abs_error,
        "sum_error_credits": sum_error,
        "total_predicted_credits": total_predicted,
        "total_realized_credits": total_realized,
        "mean_abs_error_credits": sum_abs_error / n if n else 0.0,
        "mean_error_credits": sum_error / n if n else 0.0,
    }


def event_outcome(attrs: dict) -> tuple[float, float, float | None]:
    """A ``provenance.outcome`` event's attrs as one
    :func:`calibration_facts` outcome (missing credits read as ``0.0``)."""
    error = attrs.get("error_credits")
    return (
        float(attrs.get("realized_credits") or 0.0),
        float(attrs.get("predicted_credits") or 0.0),
        None if error is None else float(error),
    )


@dataclass(frozen=True)
class AttributionSummary:
    """One warehouse's provenance rollup (plain values: pickles cleanly)."""

    warehouse: str
    n_decisions: int
    n_sealed: int
    n_entries: int
    attributed_credits: float
    ledger_credits: float
    conserved: bool
    mean_abs_error_credits: float
    decision_kinds: dict[str, int]
