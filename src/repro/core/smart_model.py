"""The smart model (§4.3): the per-warehouse decision maker.

At every decision tick the smart model combines the four inputs the paper
enumerates:

1. **historical knowledge** — the trained DQN's Q-values over the joint
   action space;
2. **the warehouse cost model** — a guardrail: before committing to the
   best-Q action, the model what-ifs its predicted latency factor over the
   recent workload and skips candidates that exceed the slider's ceiling
   (C4: never prioritize cost over performance beyond what the customer
   allowed);
3. **customer constraints and the slider** — non-compliant actions are
   masked before selection ("the smart models never take actions that
   violate the customer constraints"), and active resource floors are
   enforced unconditionally;
4. **real-time feedback** — on degradation or a load spike the model backs
   off to a safe configuration (a step back toward the customer's original
   settings) and holds during a cooldown; on an external change it asks the
   optimizer to revert and pause (§4.4).

Because the slider only shifts guardrails, penalties and masks, moving it
re-calibrates behaviour without retraining — exactly the paper's
"re-calibrate its decisions automatically" property.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

import numpy as np

from repro.common.simtime import HOUR, Window
from repro.durability.codec import decode_config, encode_config, require_keys
from repro.obs.provenance import CandidateEvaluation, DecisionContext
from repro.learning.actions import ActionSpace
from repro.core.constraints import ConstraintSet
from repro.core.monitoring import RealTimeFeedback
from repro.core.sliders import SliderParams
from repro.costmodel.model import WarehouseCostModel
from repro.costmodel.replay import ReplayHistory, ReplayResult
from repro.learning.agent import DQNAgent
from repro.learning.features import FeatureExtractor, interval_windows
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize

#: How many top-Q candidates the cost-model guardrail will consider before
#: falling back to holding the current configuration.
GUARDRAIL_CANDIDATES = 3
#: Window of recent history used for guardrail what-ifs.
GUARDRAIL_LOOKBACK = 2 * HOUR
#: Hold time after a back-off before learned actions resume.
BACKOFF_COOLDOWN = 1800.0
#: Minimum dwell between *structural* changes (size / cluster bounds).
#: Resizes drop every cluster's cache, so thrashing sizes every decision
#: interval destroys exactly the cache warmth KWO is trying to preserve.
#: Auto-suspend retuning is exempt — it drops nothing.
STRUCTURAL_DWELL = 1800.0
#: Minimum queries in the monitor's lookback before a structural change is
#: considered.  During idle periods the what-if replay sees no workload, so
#: every resize looks free — acting on that evidence vacuum is how an
#: optimizer drifts to the wrong size overnight.  (Idle time is also exactly
#: when resizing buys nothing: a suspended warehouse costs 0 at any size.)
MIN_ACTIVITY_FOR_STRUCTURAL = 5
#: Admissible masks kept per action-table entry (one per distinct set of
#: mask inputs; the oldest goes first).
MASK_MEMO_SIZE = 8


class DecisionKind(enum.Enum):
    LEARNED = "learned"  # chosen by the DQN and cleared by guardrails
    CONSTRAINT_FLOOR = "constraint_floor"  # forced by an active rule
    BACKOFF = "backoff"  # self-correction on degradation/spike
    HOLD = "hold"  # cooldown or no admissible improvement
    EXTERNAL_CONFLICT = "external_conflict"  # revert + pause requested
    SAFE_MODE = "safe_mode"  # degraded operation: frozen at original config


@dataclass(frozen=True)
class Decision:
    """One decision tick's outcome.

    ``reason_code`` is the machine-readable variant of ``reason``: a stable
    dotted identifier (``learned.apply``, ``hold.cooldown``,
    ``decision_error.TelemetryError``, ...) that provenance records, counters
    and the fleet store key on, while ``reason`` stays free-form prose.
    """

    kind: DecisionKind
    target: WarehouseConfig
    reason: str
    action_index: int | None = None
    q_value: float | None = None
    reason_code: str = ""

    @property
    def typed_reason(self) -> str:
        """The reason code, falling back to the decision kind."""
        return self.reason_code or self.kind.value


def encode_decision(decision: Decision) -> dict:
    """StateCodec shape for one decision-tick outcome."""
    return {
        "kind": decision.kind.value,
        "target": encode_config(decision.target),
        "reason": decision.reason,
        "action_index": decision.action_index,
        "q_value": decision.q_value,
        "reason_code": decision.reason_code,
    }


def decode_decision(state: dict) -> Decision:
    action_index = state["action_index"]
    q_value = state["q_value"]
    return Decision(
        kind=DecisionKind(state["kind"]),
        target=decode_config(state["target"]),
        reason=state["reason"],
        action_index=None if action_index is None else int(action_index),
        q_value=None if q_value is None else float(q_value),
        reason_code=state["reason_code"],
    )


@dataclass(frozen=True)
class Guardrail:
    """One tick's cost-model evidence (§4.3): the recent window's snapshot,
    its replay under the current config, and the customer's original config.

    Every candidate is judged against the same snapshot, so a tick fetches
    and prepares its window once however many candidates it weighs.  The
    original config is never replayed: its only use is the latency
    reference, which is its size stage's mean latency, read when a verdict
    runs (:meth:`reference_latency`).
    """

    snapshot: ReplayHistory
    current: WarehouseConfig
    base: ReplayResult
    original: WarehouseConfig

    def predicted(self, estimate: ReplayResult) -> float | None:
        """``estimate``'s credits as a per-hour rate — the guardrail window
        and the decision interval differ, so the rate is the comparable
        unit.  ``None`` for an empty window."""
        window_hours = self.snapshot.window.duration / HOUR
        return estimate.credits / window_hours if window_hours > 0 else None

    def reference_latency(self) -> float:
        """Mean replayed latency under the original config: its size
        stage's mean, which a replay under any config of that size reports
        (the base replay's, when the sizes agree; 0.0 for an empty window)."""
        if not self.snapshot.records:
            return 0.0
        return self.snapshot.size_stage(self.original.size).avg_latency

    def verdict(
        self, target: WarehouseConfig, params: SliderParams, pressure: bool
    ) -> tuple[bool, ReplayResult]:
        """Cost-model veto: reject actions predicted to slow queries beyond
        the slider's ceiling, or to raise cost beyond the slider's cost
        tolerance.  This is C4's safety net against a mistrained Q-function:
        whatever the agent believes, an action must look good to the
        what-if replay before it is applied.  Returns ``(passes, estimate)``
        so provenance can record the what-if that justified the verdict.

        Latency is judged against the *original* configuration's mean
        replayed latency, not the current one's.  Judging against the
        current config creates a ratchet: once the warehouse drifts above
        the customer's size, every downsize looks like a "slowdown" and is
        vetoed forever, even though it merely returns to the performance
        the customer provisioned for.

        ``pressure`` reports live performance stress: without it, upsizing
        (which can only cost money) needs a predicted saving to be worth it.
        """
        candidate = self.snapshot.cost(target)
        base = self.base
        reference = self.reference_latency()
        latency_factor = (
            candidate.avg_latency / max(reference, 1e-9) if reference > 0 else 1.0
        )
        if latency_factor > params.max_latency_factor + 1e-9:
            return False, candidate
        credits_delta = candidate.credits - base.credits
        slows_vs_base = candidate.avg_latency > base.avg_latency + 1e-9
        if slows_vs_base and credits_delta >= 0:
            return False, candidate
        # Upsizing costs money; it needs either live performance pressure, a
        # predicted saving, or a slider so performance-leaning (tolerance
        # >= 0.5, i.e. Best Performance) that speed is worth buying outright.
        speed_buyer = params.cost_increase_tolerance >= 0.5
        upsize = target.size > self.current.size
        if upsize and not pressure and not speed_buyer and credits_delta >= 0:
            return False, candidate
        allowed_increase = params.cost_increase_tolerance * max(base.credits, 1e-6)
        if credits_delta > allowed_increase + 1e-9:
            return False, candidate
        return True, candidate


class SmartModel:
    """Decision policy for one warehouse."""

    def __init__(
        self,
        client: CloudWarehouseClient,
        warehouse: str,
        agent: DQNAgent,
        action_space: ActionSpace,
        features: FeatureExtractor,
        cost_model: WarehouseCostModel,
        constraints: ConstraintSet,
        params: SliderParams,
        decision_interval: float = 600.0,
    ):
        self.client = client
        self.warehouse = warehouse
        self.agent = agent
        self.action_space = action_space
        self.features = features
        self.cost_model = cost_model
        self.constraints = constraints
        self.params = params
        self.decision_interval = decision_interval
        self.original = action_space.original
        # Anchor of the confidence-ramped suspend floor (_admissible_mask).
        max_suspend = float(action_space.suspend_seconds.max())
        if self.original.auto_suspend_seconds <= 0:  # "never suspend" customer
            self._suspend_anchor = 4 * max_suspend
        else:
            self._suspend_anchor = max(self.original.auto_suspend_seconds, max_suspend)
        # The suspend floor reaches the mask only through which of these
        # choices clear it, so the mask memo keys on that cut.
        self._suspend_choices = sorted(
            set(action_space.suspend_seconds[~action_space.keeps_suspend].tolist())
        )
        self._cooldown_until = -1e18
        self._last_structural_change = -1e18
        self._confidence_anchor: float | None = None
        self._confidence_tau: float = 0.0
        self.guardrail_vetoes = 0

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        return {
            "cooldown_until": self._cooldown_until,
            "last_structural_change": self._last_structural_change,
            "confidence_anchor": self._confidence_anchor,
            "confidence_tau": self._confidence_tau,
            "guardrail_vetoes": self.guardrail_vetoes,
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            (
                "cooldown_until",
                "last_structural_change",
                "confidence_anchor",
                "confidence_tau",
                "guardrail_vetoes",
            ),
            "SmartModel",
        )
        self._cooldown_until = float(state["cooldown_until"])
        self._last_structural_change = float(state["last_structural_change"])
        anchor = state["confidence_anchor"]
        self._confidence_anchor = None if anchor is None else float(anchor)
        self._confidence_tau = float(state["confidence_tau"])
        self.guardrail_vetoes = int(state["guardrail_vetoes"])

    # ----------------------------------------------------------- slider swap
    def set_slider(self, params: SliderParams) -> None:
        """Re-calibrate without retraining (§4.3)."""
        self.params = params

    # ------------------------------------------------------- confidence ramp
    def set_confidence_ramp(self, anchor_time: float, tau_seconds: float) -> None:
        """Unlock aggressiveness gradually after onboarding.

        The paper reports customers reach 50/70/95% of their eventual
        savings after 20/43/83 hours — models "constantly learn and improve
        with more usage".  We encode that trust ramp explicitly: confidence
        ``c = 1 - exp(-t/τ)`` grows with enabled time, and the admissible
        action set widens with it (the suspend floor relaxes from the most
        conservative choice down to the slider's floor; the permitted
        downsizing depth grows from zero to the slider's depth).  τ = 0
        disables the ramp (full aggressiveness immediately).
        """
        self._confidence_anchor = anchor_time
        self._confidence_tau = tau_seconds

    def confidence(self, now: float) -> float:
        if self._confidence_anchor is None or self._confidence_tau <= 0:
            return 1.0
        elapsed = max(0.0, now - self._confidence_anchor)
        raw = 1.0 - float(np.exp(-elapsed / self._confidence_tau))
        # Normalize so full aggressiveness is actually reached (the raw
        # exponential only approaches 1 asymptotically, which would leave
        # the most aggressive actions masked forever).
        return min(1.0, raw / 0.95)

    # ------------------------------------------------------------- decisions
    def next_action(
        self, now: float, feedback: RealTimeFeedback
    ) -> tuple[Decision, DecisionContext]:
        """Decide this tick, returning the decision with what it weighed.

        Reflex decisions (external conflict, constraint floor, back-off,
        cooldown) price nothing, so their context is empty; a learned
        decision's context carries every candidate it considered and the
        what-if of the target it settled on.
        """
        current = self.client.current_config(self.warehouse)

        if feedback.external_change:
            return Decision(
                DecisionKind.EXTERNAL_CONFLICT,
                current,
                "external configuration change detected",
                reason_code="external_conflict.detected",
            ), DecisionContext()

        # Mandatory resource floors from active rules apply before anything.
        floored = self.constraints.enforce_floor(now, current)
        if floored != current:
            return Decision(
                DecisionKind.CONSTRAINT_FLOOR,
                floored,
                "active rule requires resources",
                reason_code="constraint_floor.active_rule",
            ), DecisionContext()

        if feedback.needs_backoff(self.params) or feedback.spike_detected(self.params):
            target = self._safe_config(now, current)
            self._cooldown_until = now + BACKOFF_COOLDOWN
            if self._is_structural(current, target):
                self._last_structural_change = now
            degradation = feedback.needs_backoff(self.params)
            cause = "performance degradation" if degradation else "arrival spike"
            return Decision(
                DecisionKind.BACKOFF,
                target,
                f"self-correct: {cause}",
                reason_code=(
                    "backoff.degradation" if degradation else "backoff.spike"
                ),
            ), DecisionContext()

        if now < self._cooldown_until:
            return Decision(
                DecisionKind.HOLD,
                current,
                "cooldown after back-off",
                reason_code="hold.cooldown",
            ), DecisionContext()

        return self._learned_decision(now, current, feedback)

    @staticmethod
    def _is_structural(current: WarehouseConfig, target: WarehouseConfig) -> bool:
        """Does the change re-provision servers (and thus drop caches)?"""
        return (
            target.size != current.size
            or target.max_clusters != current.max_clusters
            or target.min_clusters != current.min_clusters
        )

    def _learned_decision(
        self, now: float, current: WarehouseConfig, feedback: RealTimeFeedback
    ) -> tuple[Decision, DecisionContext]:
        context = DecisionContext()
        state = self._state(now)
        mask = self._admissible_mask(now, current)
        context.admissible_actions = int(mask.sum())
        if not mask.any():
            return Decision(
                DecisionKind.HOLD,
                current,
                "no admissible action",
                reason_code="hold.no_admissible",
            ), context
        q = self.agent.q_values(state)
        order = np.argsort(np.where(mask, q, -np.inf))[::-1]
        candidates = [int(i) for i in order[:GUARDRAIL_CANDIDATES] if mask[i]]
        dwelling = now - self._last_structural_change < STRUCTURAL_DWELL
        quiet = feedback.recent_queries < MIN_ACTIVITY_FOR_STRUCTURAL
        pressure = feedback.queue_length > 0 or feedback.latency_ratio > 1.15
        guard = self._guardrail(now, current)
        targets = self.action_space.resulting_configs(current)
        decision: Decision | None = None
        # Keeping or holding the current configuration prices it with the
        # already-computed base replay.
        chosen = guard.base
        for idx in candidates:
            action = self.action_space.actions[idx]
            target = targets[idx]
            structural = self._is_structural(current, target)
            estimate: ReplayResult | None = None
            if decision is not None:
                verdict = "not_reached"
            elif target == current:
                verdict, estimate = "chosen", guard.base
                decision = Decision(
                    DecisionKind.LEARNED, current, "best action keeps settings",
                    action_index=idx, q_value=float(q[idx]),
                    reason_code="learned.keep",
                )
            elif structural and (dwelling or quiet):
                # Too soon, or no workload evidence to judge by.
                verdict = "dwell" if dwelling else "quiet"
            else:
                passes, estimate = guard.verdict(target, self.params, pressure)
                if passes:
                    verdict, chosen = "chosen", estimate
                    if structural:
                        self._last_structural_change = now
                    decision = Decision(
                        DecisionKind.LEARNED, target, action.describe(),
                        action_index=idx, q_value=float(q[idx]),
                        reason_code="learned.apply",
                    )
                else:
                    verdict = "vetoed"
                    self.guardrail_vetoes += 1
            context.candidates.append(
                CandidateEvaluation(
                    idx, action.describe(), float(q[idx]), verdict,
                    predicted_credits_per_hour=(
                        None if estimate is None else guard.predicted(estimate)
                    ),
                    predicted_avg_latency=(
                        None if estimate is None else estimate.avg_latency
                    ),
                )
            )
        context.predicted_credits_per_hour = guard.predicted(chosen)
        context.predicted_avg_latency = chosen.avg_latency
        if decision is None:
            decision = Decision(
                DecisionKind.HOLD,
                current,
                "all candidates vetoed by cost model",
                reason_code="hold.all_vetoed",
            )
        return decision, context

    # ------------------------------------------------------------- internals
    def _state(self, now: float) -> np.ndarray:
        recent_w, previous_w = interval_windows(now, self.decision_interval)
        recent = self.client.query_history(self.warehouse, recent_w)
        previous = self.client.query_history(self.warehouse, previous_w)
        info = self.client.describe_warehouse(self.warehouse)
        return self.features.extract(now, recent, previous, info)

    def _admissible_mask(
        self, now: float, current: WarehouseConfig, confidence: float | None = None
    ) -> np.ndarray:
        """Constraints ∧ slider policy (suspend floor, downsize depth),
        scaled back by the onboarding confidence ramp.

        ``confidence`` overrides the ramp — offline training passes 1.0 so
        the agent learns over the *eventual* action space (episode
        timestamps predate the ramp anchor, so without the override every
        training step would see the fully-locked day-zero mask and the DQN
        would never explore the actions it later becomes allowed to take).
        """
        space = self.action_space
        table = space.transitions(current)
        c = self.confidence(now) if confidence is None else confidence
        # The suspend floor relaxes geometrically from the customer's own
        # setting down to the slider's floor as confidence grows: early on
        # KWO only trims the obvious idle fat; the aggressive 60 s suspends
        # that risk cold caches are earned, not assumed.
        floor = max(self.params.min_auto_suspend, 1.0)
        suspend_floor = floor * (self._suspend_anchor / floor) ** (1.0 - c)
        downsize_depth = int(c * self.params.max_downsize_steps)
        # Everything the mask reads besides the table's own config (the
        # size band is the original size stepped by the two depths).
        key = (
            bisect.bisect_left(self._suspend_choices, suspend_floor - 1e-9),
            downsize_depth,
            self.params.max_upsize_steps,
            tuple(self.constraints.active_rules(now)),
        )
        mask = table.masks.get(key)
        if mask is None:
            mask = self.constraints.action_mask(now, current, space)
            mask &= space.keeps_suspend | (space.suspend_seconds >= suspend_floor - 1e-9)
            size_floor = self.original.size.step(-downsize_depth)
            size_ceiling = self.original.size.step(self.params.max_upsize_steps)
            sizes = table.target_sizes
            mask &= (sizes >= size_floor.value) & (sizes <= size_ceiling.value)
            if not mask.any():
                # A constraint floor can be unreachable in one step (e.g. a
                # rule demanding X-Large while the warehouse sits at Small).
                # In the live loop enforce_floor() jumps the config before
                # this mask is consulted; during offline training we hold.
                mask[space.noop_index] = True
            if len(table.masks) >= MASK_MEMO_SIZE:
                del table.masks[next(iter(table.masks))]
            table.masks[key] = mask
        return mask.copy()

    def _guardrail(self, now: float, current: WarehouseConfig) -> Guardrail:
        """Snapshot the recent window once per tick and replay it under the
        current configuration (candidates reuse it, and replay from the
        same snapshot)."""
        window = Window(max(0.0, now - GUARDRAIL_LOOKBACK), now)
        snapshot = self.cost_model.snapshot(window)
        return Guardrail(snapshot, current, snapshot.cost(current), self.original)

    def _safe_config(self, now: float, current: WarehouseConfig) -> WarehouseConfig:
        """The back-off target: one step toward the original configuration,
        with suspension relaxed so caches stop churning."""
        size = current.size
        if size < self.original.size:
            size = WarehouseSize(size.value + 1)
        max_clusters = min(self.original.max_clusters, current.max_clusters + 1)
        safe = current.with_changes(
            size=size,
            max_clusters=max_clusters,
            min_clusters=min(current.min_clusters, max_clusters),
            auto_suspend_seconds=max(
                current.auto_suspend_seconds, self.original.auto_suspend_seconds
            ),
        )
        return self.constraints.enforce_floor(now, safe)
