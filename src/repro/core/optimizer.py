"""The warehouse optimizer: Algorithm 1, end to end.

:class:`WarehouseOptimizer` is the per-warehouse control loop.  Onboarding
(§4.2, "data learning") reads the warehouse's recent telemetry, fits the
cost model, reconstructs a training environment and trains the DQN smart
model offline.  The optimizer then registers a periodic controller on the
account's event loop and, every ``decision_interval`` (the paper's
``T_realtime``), gathers real-time feedback, asks the smart model for the
next action and applies it through the actuator.  Every
``retrain_interval`` (the paper's ``T``) it re-fits the models on the
accumulated telemetry (Algorithm 1 lines 13-16).

:class:`KeeboService` is the managed-product facade: one smart model per
warehouse (never shared across warehouses or customers — C5/C6), slider
updates without retraining, constraint management, savings reporting and
value-based invoicing.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import (
    ConfigurationError,
    RecoveryError,
    TelemetryError,
    UnknownWarehouseError,
    WarehouseError,
)
from repro.common.simtime import DAY, HOUR, Window
from repro.common.stable_json import canonical_json
from repro.common.stats import percentile
from repro.durability import CheckpointLoad, CheckpointStore
from repro.durability.codec import (
    AppendLog,
    canonical_object,
    decode_config,
    decode_window,
    encode_config,
    require_keys,
)
from repro.faults.plan import PROCESS_OPERATION, FaultKind, FaultPlan, FaultSpec
from repro.obs import trace as obs
from repro.obs.provenance import (
    DecisionContext,
    DecisionOutcome,
    ProvenanceLog,
    decode_record,
    encode_record,
)
from repro.learning.actions import ActionSpace
from repro.core.actuator import Actuator
from repro.core.constraints import ConstraintSet
from repro.core.ledger import LiveLedger, SavingsLedger
from repro.core.monitoring import Monitor
from repro.core.policy_advisor import ScalingPolicyAdvisor
from repro.core.pricing import Invoice, ValueBasedPricing
from repro.core.sliders import SliderPosition, slider_params
from repro.core.smart_model import (
    Decision,
    DecisionKind,
    SmartModel,
    decode_decision,
    encode_decision,
)
from repro.costmodel.model import SavingsEstimate, WarehouseCostModel
from repro.learning.agent import DQNAgent, DQNConfig
from repro.learning.env import WarehouseEnv, reconstruct_workload
from repro.learning.features import FEATURE_DIM, FeatureExtractor, WorkloadBaseline
from repro.learning.trainer import OfflineTrainer, TrainingReport
from repro.warehouse.account import Account
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.telemetry import WarehouseEvent


@dataclass
class OptimizerConfig:
    """Knobs of the optimization loop itself (not of the warehouse)."""

    #: Paper's ``T_realtime``: seconds between decisions.
    decision_interval: float = 600.0
    #: Paper's ``T``: seconds between model refreshes.
    retrain_interval: float = 24 * HOUR
    #: Telemetry history used for onboarding training.
    training_window: float = 3 * DAY
    #: Training episodes at onboarding.
    onboarding_episodes: int = 6
    #: Fine-tuning episodes per periodic retrain (0 = refit cost model only).
    retrain_episodes: int = 1
    #: Episode length for training (shorter slices -> more resets/episodes).
    episode_length: float = 1 * DAY
    #: Seconds between savings reports to the ledger (Algorithm 1 line 18).
    report_interval: float = 4 * HOUR
    #: Time constant (seconds) of the onboarding confidence ramp: the smart
    #: model's permitted aggressiveness grows as 1 - exp(-t/τ) after
    #: onboarding (0 disables).  The default reproduces the paper's observed
    #: 50/70/95%-of-eventual-savings at roughly 20/43/83 hours.
    confidence_tau: float = 30 * HOUR
    #: SAFE_MODE trigger: seconds of telemetry staleness before the
    #: optimizer freezes at the customer's original configuration
    #: (docs/ROBUSTNESS.md).  Also entered while the actuation circuit
    #: breaker is open.
    telemetry_staleness_threshold: float = 1800.0
    agent: DQNConfig = field(default_factory=DQNConfig)

    def __post_init__(self):
        if self.decision_interval <= 0 or self.retrain_interval <= 0:
            raise ConfigurationError("intervals must be positive")
        if self.training_window < self.episode_length:
            raise ConfigurationError("training window shorter than one episode")


class WarehouseOptimizer:
    """Algorithm 1 for one warehouse."""

    def __init__(
        self,
        account: Account,
        warehouse: str,
        slider: SliderPosition = SliderPosition.BALANCED,
        constraints: ConstraintSet | None = None,
        config: OptimizerConfig | None = None,
        client: CloudWarehouseClient | None = None,
    ):
        self.account = account
        self.warehouse = warehouse
        # An injected client (e.g. a FaultingWarehouseClient) is shared by
        # every KWO component — monitor, actuator, smart model, cost model —
        # so a single fault plan covers the whole control loop.
        self.client = (
            client if client is not None else CloudWarehouseClient(account, actor="keebo")
        )
        self.params = slider_params(slider)
        self.constraints = constraints or ConstraintSet()
        self.config = config or OptimizerConfig()
        self.onboarded = False
        self.paused = False
        self.safe_mode = False
        self.safe_mode_entries = 0
        self._warmup_until = -1e18
        self.decisions: list[Decision] = []
        self.training_reports: list[TrainingReport] = []
        self.ledger = SavingsLedger(warehouse)
        #: Decision audit trail + savings attribution (docs/OBSERVABILITY.md).
        self.provenance = ProvenanceLog(warehouse, self.config.decision_interval)
        self._last_retrain = -1e18
        self._last_report = -1e18
        self._decisions_at_last_report = 0
        self._controller = None
        # Populated at onboarding:
        self.cost_model: WarehouseCostModel | None = None
        self.smart_model: SmartModel | None = None
        self.actuator: Actuator | None = None
        self.monitor: Monitor | None = None
        self.agent: DQNAgent | None = None
        self.baseline: WorkloadBaseline | None = None
        self.action_space: ActionSpace | None = None
        #: The open report period's streamed rows, reconciled at its close.
        self.live_ledger: LiveLedger | None = None
        self.policy_advisor = ScalingPolicyAdvisor(self.params)

    # ------------------------------------------------------------ onboarding
    def onboard(self) -> TrainingReport:
        """Fit models on recent telemetry and start the decision loop."""
        now = self.account.sim.now
        history = Window(max(0.0, now - self.config.training_window), now)
        records = self.client.query_history(self.warehouse, history)
        if not records:
            raise ConfigurationError(
                f"cannot onboard {self.warehouse!r}: no telemetry in the last "
                f"{self.config.training_window / DAY:.1f} days"
            )
        self._build_components(
            self.account.telemetry.original_config(self.warehouse, before=now),
            WorkloadBaseline.fit(records),
            WarehouseCostModel(self.client, self.warehouse).fit(history),
        )
        self.monitor.learn_templates({r.template_hash for r in records})
        self.monitor.set_expected_config(self.client.current_config(self.warehouse))
        if self.config.confidence_tau > 0:
            self.smart_model.set_confidence_ramp(now, self.config.confidence_tau)
        with obs.span(
            "optimizer.onboard",
            now,
            warehouse=self.warehouse,
            restored=False,  # onboarding always trains a fresh model
            records=len(records),
        ):
            report = self._train(records, history, self.config.onboarding_episodes)
        self.training_reports.append(report)
        self._last_retrain = now
        self._controller = self.account.sim.add_controller(
            self.config.decision_interval,
            self._tick,
            start=now + self.config.decision_interval,
            name=f"optimizer[{self.warehouse}]",
        )
        self.onboarded = True
        self._last_report = now
        self.live_ledger = LiveLedger(
            self.warehouse,
            self.cost_model.replay,
            Window(now, now + self.config.report_interval),
        )
        self.account.telemetry.record_event(
            WarehouseEvent(now, self.warehouse, "keebo_onboarded", "keebo", {})
        )
        return report

    def _build_components(
        self,
        original: WarehouseConfig,
        baseline: WorkloadBaseline,
        cost_model: WarehouseCostModel,
    ) -> None:
        """Construct the decision components around fitted or restored
        models, for :meth:`onboard` and :meth:`load_durable_state` alike.

        No constructor here calls the vendor.  The actuator's stream is
        created before the agent's, and the agent draws its initial
        weights from its own stream.
        """
        self.action_space = ActionSpace(
            original, max_size_headroom=self.params.max_upsize_steps
        )
        self.baseline = baseline
        self.cost_model = cost_model
        self.monitor = Monitor(self.client, self.warehouse, baseline)
        self.actuator = Actuator(
            self.client,
            self.warehouse,
            self.monitor,
            # One retry-jitter stream per optimized warehouse (names are
            # unique per account, so these streams cannot collide).
            rng=self.account.rngs.stream(f"keebo.actuator.{self.warehouse}"),  # repro-lint: disable=R003
        )
        self.agent = DQNAgent(
            FEATURE_DIM,
            len(self.action_space),
            self.config.agent,
            # One exploration stream per optimized warehouse (warehouse names
            # are unique per account, so these streams cannot collide).
            self.account.rngs.stream(f"keebo.agent.{self.warehouse}"),  # repro-lint: disable=R003
        )
        self.smart_model = SmartModel(
            self.client,
            self.warehouse,
            self.agent,
            self.action_space,
            FeatureExtractor(baseline, original),
            cost_model,
            self.constraints,
            self.params,
            self.config.decision_interval,
        )

    def _train(self, records, history: Window, episodes: int) -> TrainingReport:
        """Offline DRL training on the telemetry-reconstructed workload."""
        if episodes <= 0:
            return TrainingReport()
        span = obs.span(
            "optimizer.train",
            history.end,
            warehouse=self.warehouse,
            episodes=episodes,
            requests=len(records),
        )
        original = self.action_space.original
        # Train on the most recent episode-length slice; each episode
        # re-simulates it under a different seed.
        episode = Window(
            max(history.start, history.end - self.config.episode_length), history.end
        )
        env = WarehouseEnv(
            reconstruct_workload(records, self.cost_model.latency_model, episode),
            original,
            self.baseline,
            self.action_space,
            self.params.reward_config(),
            episode,
            decision_interval=self.config.decision_interval,
            # Full confidence during offline training: the ramp gates live
            # rollout only (see SmartModel._admissible_mask).
            mask_fn=lambda t, cfg: self.smart_model._admissible_mask(
                t, cfg, confidence=1.0
            ),
            seed=self.account.rngs.spawn_seed(f"keebo.env.{self.warehouse}"),
        )
        with span as sp:
            report = OfflineTrainer(self.agent, env).run(episodes)
            sp.set(episodes_run=len(report.episodes))
        return report

    # ------------------------------------------------------------------ loop
    def _tick(self, now: float) -> None:
        if not self.onboarded:
            return
        if self.paused:
            return
        with obs.span("optimizer.tick", now, warehouse=self.warehouse) as sp:
            # Seal every earlier decision's provenance record with the
            # realized outcome of the interval it governed.
            self._seal_provenance(now)
            # Stream the period's freshly completed rows into the live
            # ledger before anything else reads its projection this tick.
            self._stream_live_ledger(now)
            if not self.safe_mode:
                if now - self._last_retrain >= self.config.retrain_interval:
                    self._retrain(now)
                if now - self._last_report >= self.config.report_interval:
                    self._report_savings(now)
            feedback = self.monitor.snapshot(now)
            degraded = self._degraded_reason(now, feedback)
            if degraded:
                decision = self._safe_mode_tick(now, degraded)
                self._commit(now, sp, feedback, decision, DecisionContext())
                last = self.actuator.last_applied
                if last is not None and last.time == now:
                    self.provenance.note_apply(last.succeeded, last.error)
                return
            if self.safe_mode:
                self._exit_safe_mode(now)
            if not feedback.telemetry_ok or now < self._warmup_until:
                # Dark telemetry below the SAFE_MODE threshold, or the
                # warm-up tick right after leaving SAFE_MODE: hold position
                # rather than decide on stale features.
                if feedback.telemetry_ok:
                    reason, code = "safe-mode warm-up", "hold.warmup"
                else:
                    reason, code = "telemetry unavailable", "hold.telemetry_dark"
                decision = Decision(
                    DecisionKind.HOLD, self._held_config(), reason, reason_code=code
                )
                context = DecisionContext()
            else:
                try:
                    decision, context = self.smart_model.next_action(now, feedback)
                except (TelemetryError, WarehouseError) as exc:
                    decision = self._decision_error_fallback(now, exc)
                    context = DecisionContext()
            self._commit(now, sp, feedback, decision, context)
            self._record_alerts(now, feedback, decision)
            if decision.kind == DecisionKind.BACKOFF:
                obs.emit(
                    "optimizer.backoff",
                    now,
                    warehouse=self.warehouse,
                    reason=decision.reason,
                )
            if decision.kind == DecisionKind.EXTERNAL_CONFLICT:
                self._handle_external_conflict(now)
                return
            if decision.kind == DecisionKind.HOLD and not feedback.telemetry_ok:
                return
            try:
                current = self.client.current_config(self.warehouse)
            except WarehouseError as exc:
                obs.emit(
                    "optimizer.config_read_error",
                    now,
                    warehouse=self.warehouse,
                    error=str(exc),
                )
                return
            if decision.target != current:
                applied = self.actuator.apply(
                    decision.target, reason=f"{decision.kind.value}: {decision.reason}"
                )
                self.provenance.note_apply(applied.succeeded, applied.error)
                sp.set(applied=decision.target.describe())
            self._advise_scaling_policy(now, feedback)

    # ------------------------------------------------------------ provenance
    def _decision_error_fallback(self, now: float, exc: Exception) -> Decision:
        """A decision-path failure becomes a typed, counted HOLD.

        The exception type survives as a reason code and a per-type counter,
        and the ``__cause__`` chain is recorded — "decision error: <msg>"
        alone made vendor flakiness indistinguishable from telemetry rot.
        """
        exc_type = type(exc).__name__
        cause = exc.__cause__
        # Metric names are dotted lowercase; CamelCase class names become
        # snake_case segments (TelemetryError -> telemetry_error).
        segment = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", exc_type).lower()
        obs.counter(f"repro.optimizer.decision_errors.{segment}").inc(time=now)
        obs.emit(
            "optimizer.decision_error",
            now,
            warehouse=self.warehouse,
            error=str(exc),
            error_type=exc_type,
            cause_type=type(cause).__name__ if cause is not None else "",
            cause=str(cause) if cause is not None else "",
        )
        return Decision(
            DecisionKind.HOLD,
            self._held_config(),
            f"decision error: {exc}",
            reason_code=f"decision_error.{exc_type}",
        )

    def _commit(
        self, now: float, sp, feedback, decision: Decision, context: DecisionContext
    ) -> None:
        """Log the tick's decision: the decision list, the tick span's
        ``decision`` attribute, the per-kind counter and an open provenance
        record carrying what the decision weighed."""
        self.decisions.append(decision)
        sp.set(decision=decision.kind.value)
        obs.counter(f"repro.optimizer.decisions.{decision.kind.value}").inc(time=now)
        breaker = self.actuator.breaker
        self.provenance.record(
            now,
            kind=decision.kind.value,
            reason=decision.reason,
            reason_code=decision.typed_reason,
            target=decision.target.describe(),
            feedback=feedback,
            context=context,
            action_index=decision.action_index,
            q_value=decision.q_value,
            safe_mode=self.safe_mode,
            breaker_state=breaker.state.value,
            breaker_consecutive_failures=breaker.consecutive_failures,
            retries_scheduled=self.actuator.retries_scheduled,
        )

    def _seal_provenance(self, now: float) -> None:
        self.provenance.seal_until(now, self._realized_outcome)

    def _realized_outcome(self, window: Window) -> DecisionOutcome:
        """Ground truth for sealing: account-side billing + telemetry.

        Deliberately *not* read through ``self.client`` — extra vendor-client
        calls would be metered as KWO overhead and would consume fault-plan
        randomness, so sealing through the client would change the very run
        it observes.
        """
        meter = self.account.warehouse(self.warehouse).meter
        records = self.account.telemetry.query_history(self.warehouse, window)
        latencies = [r.total_seconds for r in records]
        return DecisionOutcome(
            credits=meter.credits_in_window(window),
            p99_latency=percentile(latencies, 99),
            n_queries=len(records),
        )

    # ---------------------------------------------------------- degraded mode
    def _held_config(self) -> WarehouseConfig:
        """Best known configuration when holding without a fresh read."""
        last = self.actuator.last_applied
        return last.to_config if last is not None else self.action_space.original

    def _degraded_reason(self, now: float, feedback) -> str:
        """Non-empty when the loop must run in SAFE_MODE this tick."""
        if (
            not feedback.telemetry_ok
            and feedback.telemetry_age_seconds >= self.config.telemetry_staleness_threshold
        ):
            return (
                f"telemetry stale for {feedback.telemetry_age_seconds:.0f}s "
                f"(threshold {self.config.telemetry_staleness_threshold:.0f}s)"
            )
        if self.actuator.breaker.blocking(now):
            return "actuation circuit breaker open"
        return ""

    def _safe_mode_tick(self, now: float, reason: str) -> Decision:
        """Degraded operation: freeze at the customer's original config."""
        original = self.action_space.original
        if not self.safe_mode:
            self.safe_mode = True
            self.safe_mode_entries += 1
            obs.counter("repro.optimizer.safe_mode_entries").inc(time=now)
            obs.emit(
                "optimizer.safe_mode.enter", now, warehouse=self.warehouse, reason=reason
            )
            obs.alerts().fire(
                f"optimizer.safe_mode.{self.warehouse.lower()}",
                now,
                severity="critical",
                warehouse=self.warehouse,
                reason=reason,
            )
            self.account.telemetry.record_event(
                WarehouseEvent(
                    now, self.warehouse, "keebo_safe_mode", "keebo", {"cause": reason}
                )
            )
            # Best-effort revert to the configuration the customer chose;
            # the actuator absorbs any further vendor failures (and its
            # half-open probes double as breaker recovery checks).
            if not self.actuator.breaker.blocking(now):
                self.actuator.apply(original, reason=f"safe mode: {reason}")
        elif not self.actuator.breaker.blocking(now):
            last = self.actuator.last_applied
            if last is None or not last.succeeded or last.to_config != original:
                self.actuator.apply(original, reason=f"safe mode: {reason}")
        return Decision(
            DecisionKind.SAFE_MODE, original, reason, reason_code="safe_mode.frozen"
        )

    def _exit_safe_mode(self, now: float) -> None:
        self.safe_mode = False
        self._warmup_until = now + self.config.decision_interval
        obs.emit("optimizer.safe_mode.exit", now, warehouse=self.warehouse)
        obs.alerts().resolve(f"optimizer.safe_mode.{self.warehouse.lower()}", now)
        try:
            # Accept the live configuration so the exit itself cannot trip
            # the external-change detector.
            self.monitor.set_expected_config(self.client.current_config(self.warehouse))
        except WarehouseError as exc:
            obs.emit(
                "optimizer.config_read_error",
                now,
                warehouse=self.warehouse,
                error=str(exc),
            )

    def _record_alerts(self, now: float, feedback, decision: Decision) -> None:
        """Track self-corrections as first-class fire/resolve alert events.

        Level-triggered on each decision tick: a backoff (or spike) alert
        stays open while consecutive ticks keep deciding it, and resolves
        on the first tick that does not — so one degradation episode is one
        fire/resolve pair in the trace, however many ticks it spanned.
        """
        alerts = obs.alerts()
        wh = self.warehouse.lower()
        if decision.kind == DecisionKind.BACKOFF:
            alerts.fire(
                f"optimizer.backoff.{wh}",
                now,
                severity="warning",
                warehouse=self.warehouse,
                reason=decision.reason,
            )
        else:
            alerts.resolve(f"optimizer.backoff.{wh}", now)
        alerts.set_state(
            f"optimizer.spike.{wh}",
            feedback.spike_detected(self.params),
            now,
            severity="info",
            warehouse=self.warehouse,
        )

    def _advise_scaling_policy(self, now: float, feedback) -> None:
        """Tune the categorical STANDARD/ECONOMY knob (outside the DQN's
        numeric action lattice; see repro.core.policy_advisor)."""
        try:
            config = self.client.current_config(self.warehouse)
        except WarehouseError:
            return  # skip the advisory pass this tick; nothing to undo
        policy = self.policy_advisor.recommend(now, config, feedback)
        if policy is None or policy == config.scaling_policy:
            return
        target = config.with_changes(scaling_policy=policy)
        if self.constraints.permits(now, config, target):
            self.actuator.apply(target, reason=f"policy advisor: {policy.value}")

    def _retrain(self, now: float) -> None:
        """Periodic refresh (Algorithm 1 lines 13-16)."""
        obs.counter("repro.optimizer.retrains").inc(time=now)
        history = Window(max(0.0, now - self.config.training_window), now)
        try:
            with obs.span("optimizer.retrain", now, warehouse=self.warehouse):
                self._refit(history)
        except (TelemetryError, WarehouseError) as exc:
            # The vendor view is dark: keep _last_retrain so the refresh is
            # retried next tick instead of slipping a whole interval.
            obs.emit(
                "optimizer.retrain_error", now, warehouse=self.warehouse, error=str(exc)
            )
            return
        self._last_retrain = now

    def _refit(self, history: Window) -> None:
        self.cost_model.fit(history)
        records = self.client.query_history(self.warehouse, history)
        if records:
            self.baseline = WorkloadBaseline.fit(records)
            self.monitor.baseline = self.baseline
            self.monitor.learn_templates({r.template_hash for r in records})
            self.smart_model.features.baseline = self.baseline
            if self.config.retrain_episodes > 0:
                self.training_reports.append(
                    self._train(records, history, self.config.retrain_episodes)
                )

    def _report_savings(self, now: float) -> None:
        """Algorithm 1 lines 18-19: estimate and report period savings."""
        period = Window(max(0.0, self._last_report), now)
        if period.duration <= 0:
            self._last_report = now
            return
        try:
            estimate = self.cost_model.estimate_savings(period)
        except (TelemetryError, WarehouseError) as exc:
            obs.emit(
                "optimizer.report_error", now, warehouse=self.warehouse, error=str(exc)
            )
            return  # retried next tick; the period simply grows
        recent = self.decisions[self._decisions_at_last_report:]
        entry = self.ledger.report(
            estimate,
            n_actions=sum(1 for d in recent if d.kind == DecisionKind.LEARNED),
            n_backoffs=sum(1 for d in recent if d.kind == DecisionKind.BACKOFF),
        )
        self.provenance.attribution.attribute(
            entry.window, entry.savings_credits, self.provenance.records
        )
        self._decisions_at_last_report = len(self.decisions)
        self._last_report = now
        obs.emit(
            "optimizer.savings_report",
            now,
            warehouse=self.warehouse,
            savings_fraction=estimate.savings_fraction,
            savings_credits=entry.savings_credits,
            window_start=entry.window.start,
            window_end=entry.window.end,
        )
        obs.gauge(f"repro.optimizer.savings_fraction.{self.warehouse.lower()}").set(
            estimate.savings_fraction, time=now
        )
        self._reconcile_live_ledger(now, estimate)

    # ----------------------------------------------------------- live ledger
    def _stream_live_ledger(self, now: float) -> None:
        """Feed freshly completed rows into the open period; no vendor calls.

        Reads the account's telemetry directly (like provenance sealing):
        client reads would be metered as KWO overhead and consume
        fault-plan randomness, changing the run being observed.  The
        period is replayed here only for the projected-credits gauge, so
        only an observed run pays for it; the period close replays it for
        the reconciliation either way.
        """
        ledger = self.live_ledger
        period = ledger.period
        horizon = Window(period.start, min(now, period.end))
        if horizon.duration <= 0:
            return
        rows = self.account.telemetry.query_history(self.warehouse, horizon)
        fresh = ledger.ingest(rows, now)
        if not obs.enabled():
            return
        projected = ledger.projection(self.action_space.original).credits
        wh = self.warehouse.lower()
        obs.gauge(f"repro.ledger.live_projected_credits.{wh}").set(projected, time=now)
        if fresh:
            obs.counter(f"repro.ledger.live_rows.{wh}").inc(fresh, time=now)

    def _reconcile_live_ledger(self, now: float, estimate: SavingsEstimate) -> None:
        """Close the streamed period against the authoritative estimate.

        An aligned reconciliation must diverge by exactly 0.0 — the live
        projection is the same replay over the same rows — so a
        non-zero divergence is alerted as an invariant break, not logged as
        noise.
        """
        ledger = self.live_ledger
        # The tick streamed this ``now`` before reporting; nothing has
        # completed since, so the books close on the rows already in.
        original = self.account.telemetry.original_config(
            self.warehouse, before=estimate.window.end
        )
        entry = ledger.reconcile(estimate, original)
        wh = self.warehouse.lower()
        obs.emit(
            "ledger.live_reconcile",
            now,
            warehouse=self.warehouse,
            aligned=entry.aligned,
            projected_credits=entry.projected_credits,
            estimated_credits=entry.estimated_credits,
            divergence=entry.divergence,
            rows_streamed=entry.rows_streamed,
        )
        obs.gauge(f"repro.ledger.live_divergence.{wh}").set(entry.divergence, time=now)
        if entry.aligned and entry.divergence != 0.0:
            obs.alerts().fire(
                f"ledger.live_divergence.{wh}",
                now,
                severity="critical",
                warehouse=self.warehouse,
                divergence=entry.divergence,
            )
        ledger.roll(Window(now, now + self.config.report_interval))

    def _handle_external_conflict(self, now: float) -> None:
        """§4.4: revert our own pending changes and pause until told."""
        try:
            live = self.client.current_config(self.warehouse)
        except WarehouseError as exc:
            # Cannot even read the live config: stay unpaused and let the
            # next tick re-detect the conflict once the vendor responds.
            obs.emit(
                "optimizer.config_read_error",
                now,
                warehouse=self.warehouse,
                error=str(exc),
            )
            return
        self.monitor.set_expected_config(live)  # accept the external state
        self.paused = True
        obs.counter("repro.optimizer.external_conflicts").inc(time=now)
        obs.alerts().fire(
            f"optimizer.external_conflict.{self.warehouse.lower()}",
            now,
            severity="critical",
            warehouse=self.warehouse,
        )
        obs.emit(
            "optimizer.external_conflict",
            now,
            warehouse=self.warehouse,
            live_config=live.describe(),
        )
        self.account.telemetry.record_event(
            WarehouseEvent(
                now, self.warehouse, "keebo_paused", "keebo", {"cause": "external change"}
            )
        )

    def resume_optimizations(self) -> None:
        """Admin explicitly re-enables optimization after a conflict."""
        self.paused = False
        self.monitor.set_expected_config(self.client.current_config(self.warehouse))
        now = self.account.sim.now
        wh = self.warehouse.lower()
        alerts = obs.alerts()
        alerts.resolve(f"optimizer.external_conflict.{wh}", now)
        alerts.resolve(f"monitor.external_change.{wh}", now)

    def shutdown(self) -> None:
        if self.provenance.records:
            # Seal trailing records so the provenance export never ends on an
            # interval with no realized outcome.
            self._seal_provenance(self.account.sim.now)
        if self._controller is not None:
            self._controller.stop()

    # ------------------------------------------------------------ durability
    @property
    def model_version(self) -> tuple:
        """Changes exactly when heavyweight (array) state may have changed.

        Live decision ticks are greedy — no exploration draw, no buffer
        push — so the agent's arrays and the cost model's estimators only
        move at (re)training.  ``_last_retrain`` covers baseline refits and
        the fit generations cover a cost-model fit that succeeded even when
        the surrounding retrain aborted, so a delta journal entry is only
        ever written while every array captured by the last snapshot is
        still current.
        """
        return (
            self.agent.train_steps,
            self._last_retrain,
            self.cost_model.latency_model.fit_generation,
            self.cost_model.gap_model.fit_generation,
        )

    @property
    def controller_next_fire(self) -> float | None:
        """When the decision controller fires next (journaled for restore)."""
        if self._controller is None or self._controller._handle is None:
            return None
        return self._controller._handle.time

    def logs(self) -> dict[str, AppendLog]:
        """The append-only logs a checkpoint seals, by name.

        Every entry below ``sealed`` is an immutable value: ledger,
        attribution and actuator entries, reconciliations and decisions
        are frozen once appended, and provenance records below
        ``unsealed_from`` are sealed (``seal_until`` and ``note_apply``
        only touch records at or above the live mark).
        """
        actuator, ledger, live = self.actuator, self.ledger, self.live_ledger
        attribution = self.provenance.attribution
        frozen = [
            ("actuator", actuator.log, actuator.encode_log_entry, actuator.decode_log_entry),
            ("attribution", attribution.entries, attribution.encode_entry, attribution.decode_entry),
            ("decisions", self.decisions, encode_decision, decode_decision),
            ("ledger", ledger.entries, ledger.encode_entry, ledger.decode_entry),
            ("reconciliations", live.reconciliations, live.encode_reconciliation, live.decode_reconciliation),
        ]
        logs = {name: AppendLog(entries, *codec, len(entries)) for name, entries, *codec in frozen}
        logs["provenance"] = AppendLog(
            self.provenance.records, encode_record, decode_record, self.provenance.unsealed_from
        )
        return logs

    def _scalar_state(self) -> dict:
        return {
            "paused": self.paused,
            "safe_mode": self.safe_mode,
            "safe_mode_entries": self.safe_mode_entries,
            "warmup_until": self._warmup_until,
            "last_retrain": self._last_retrain,
            "last_report": self._last_report,
            "decisions_at_last_report": self._decisions_at_last_report,
        }

    def _load_scalars(self, state: dict) -> None:
        self.paused = bool(state["paused"])
        self.safe_mode = bool(state["safe_mode"])
        self.safe_mode_entries = int(state["safe_mode_entries"])
        self._warmup_until = float(state["warmup_until"])
        self._last_retrain = float(state["last_retrain"])
        self._last_report = float(state["last_report"])
        self._decisions_at_last_report = int(state["decisions_at_last_report"])

    def _client_fault_state(self) -> dict | None:
        """Injection counters when the client is fault-injecting, else None.

        Duck-typed so this module needs no FaultingWarehouseClient import.
        """
        exporter = getattr(self.client, "fault_state_dict", None)
        return None if exporter is None else exporter()

    def model_state(self) -> dict:
        """The array-bearing parts a delta never carries (:attr:`model_version`
        moves whenever they may have changed), the agent aside: the
        service reuses the agent's text while its step counters stand."""
        return {
            "warehouse": self.warehouse,
            "original_config": encode_config(self.action_space.original),
            "baseline": self.baseline.state_dict(),
            "cost_model": self.cost_model.state_dict(),
        }

    def state_dict(self) -> dict:
        """Full durable state: the models, the small states, every log whole.

        ``training_reports`` are deliberately not captured: they are
        onboarding diagnostics, never read by the decision loop or any
        export the crash-consistency invariant covers.
        """
        state, sealed = self.delta_state({})
        for name, tail in state["logs"].items():
            tail["entries"][:0] = sealed[name]
            tail["from"] = 0
        return {**self.model_state(), "agent": self.agent.state_dict(), **state}

    def delta_state(self, marks: dict[str, int]) -> tuple[dict, dict[str, list]]:
        """Journal-entry vocabulary, and the log entries sealed since ``marks``.

        The small states travel whole, each log as its open tail; the
        entries sealed since the last checkpoint (from 0 for a log without
        a mark) are returned apart, for the store to keep once.  Arrays
        (agent networks, replay buffer, cost-model estimators, the
        baseline) are *not* here — :attr:`model_version` guarantees the
        service compacts to a full snapshot whenever they may have moved.
        """
        sealed, tails = {}, {}
        for name, log in self.logs().items():
            sealed[name], tails[name] = log.since(marks.get(name, 0))
        state = {
            "monitor": self.monitor.state_dict(),
            "smart_model": self.smart_model.state_dict(),
            "policy_advisor": self.policy_advisor.state_dict(),
            "actuator": self.actuator.state_dict(),
            # Small by construction (counts + checksums, never row data), so
            # it travels whole like the other compact states.
            "live_ledger": self.live_ledger.state_dict(),
            "provenance": self.provenance.state_dict(),
            "logs": tails,
            "scalars": self._scalar_state(),
            "pending_retries": self.actuator.pending_retry_state(),
            "controller_next_fire": self.controller_next_fire,
            "client_faults": self._client_fault_state(),
        }
        return state, sealed

    def load_durable_state(self, state: dict) -> None:
        """Rebuild every component from a checkpoint, without onboarding.

        The restore path never touches the vendor surface: no telemetry
        fetch, no training, no billed calls, no fault-plan draws.  Stream
        construction below draws initial network weights from the agent
        stream, but the service overwrites every ``keebo.*``/``faults.*``
        stream state from the journal immediately after all components
        exist, so those construction draws are discarded.
        """
        cost_model = WarehouseCostModel(self.client, self.warehouse)
        cost_model.load_state_dict(state["cost_model"])
        self._build_components(
            decode_config(state["original_config"]),
            WorkloadBaseline.from_state(state["baseline"]),
            cost_model,
        )
        self.monitor.load_state_dict(state["monitor"])
        self.actuator.load_state_dict(state["actuator"])
        self.agent.load_state_dict(state["agent"])
        self.smart_model.load_state_dict(state["smart_model"])
        self.policy_advisor.load_state_dict(state["policy_advisor"])
        live_state = state.get("live_ledger")
        if not isinstance(live_state, dict):
            raise RecoveryError(
                f"checkpoint for {self.warehouse!r} carries no live ledger state"
            )
        require_keys(live_state, ("replay",), "LiveLedger")
        period = decode_window(live_state["replay"]["window"])
        self.live_ledger = LiveLedger(self.warehouse, self.cost_model.replay, period)
        # Re-feed from the account's telemetry (it survives a control-plane
        # crash); the load checks the row count and id checksum against the
        # captured state.
        self.live_ledger.load_state_dict(
            live_state, self.account.telemetry.query_history(self.warehouse, period)
        )
        logs = self.logs()
        if set(state["logs"]) != set(logs):
            raise RecoveryError(f"checkpoint logs {sorted(state['logs'])} != kept {sorted(logs)}")
        for name, log in logs.items():
            log.load(state["logs"][name])
        self.provenance.load_state_dict(state["provenance"])
        self._load_scalars(state["scalars"])
        faults_state = state["client_faults"]
        if faults_state is not None:
            loader = getattr(self.client, "load_fault_state", None)
            if loader is None:
                raise RecoveryError(
                    f"checkpoint for {self.warehouse!r} carries fault-injection "
                    "counters but the restored client is not fault-injecting "
                    "(client_factory mismatch)"
                )
            loader(faults_state)
        self.onboarded = True

    # ------------------------------------------------------------- reporting
    def set_slider(self, slider: SliderPosition) -> None:
        self.params = slider_params(slider)
        if self.smart_model is not None:
            self.smart_model.set_slider(self.params)
        self.policy_advisor.set_slider(self.params)

    def estimate_savings(self, window: Window) -> SavingsEstimate:
        if self.cost_model is None:
            raise ConfigurationError("optimizer not onboarded")
        return self.cost_model.estimate_savings(window)

    def decision_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for d in self.decisions:
            counts[d.kind.value] = counts.get(d.kind.value, 0) + 1
        return counts


def merge_checkpoint_entries(
    state: dict, entries: list[dict], sealed: dict[str, list]
) -> dict:
    """Fold journal deltas onto a snapshot state, then put each log's
    sealed entries (``sealed``, keyed ``"<warehouse>/<log>"``) in front of
    its open tail, so every log comes back whole.

    The journal vocabulary is owned here (the store is schema-agnostic):
    every part of a delta, open log tails included, overwrites the one
    before it.  Mutates and returns ``state``.
    """
    for entry in entries:
        if entry.get("kind") != "delta":
            raise RecoveryError(f"unknown journal entry kind {entry.get('kind')!r}")
        deltas = entry["optimizers"]
        if set(deltas) != set(state["optimizers"]):
            raise RecoveryError(
                "journal entry warehouses do not match the snapshot"
            )
        for warehouse, delta in deltas.items():
            state["optimizers"][warehouse].update(delta)
        state["rng_states"] = entry["rng_states"]
        state["process_fired"] = entry["process_fired"]
    unspliced = set(sealed)
    for warehouse, base in state["optimizers"].items():
        for name, tail in base["logs"].items():
            key = f"{warehouse}/{name}"
            unspliced.discard(key)
            prefix = sealed.get(key, [])
            if tail["from"] != len(prefix):
                raise RecoveryError(
                    f"{key} tail starts at {tail['from']}, {len(prefix)} entries are sealed"
                )
            base["logs"][name] = {"from": 0, "entries": prefix + tail["entries"]}
    if unspliced:
        raise RecoveryError(f"sealed entries of logs the state does not keep: {sorted(unspliced)}")
    return state


#: Seconds past each cadence multiple at which the durability controller
#: fires (see :meth:`KeeboService.enable_checkpoints`).
CHECKPOINT_OFFSET_SECONDS = 1.0

#: Journal entries written before the next checkpoint forces a compaction.
#: Journaled in each snapshot, so a restore keeps the value it ran with.
CHECKPOINT_COMPACT_EVERY = 16


class _DurabilityRuntime:
    """In-memory checkpoint bookkeeping — dies with the process.

    Everything here is recomputable from the durable artifacts at restore
    time; nothing may live *only* here that the crash-consistency invariant
    depends on.
    """

    def __init__(
        self,
        store: CheckpointStore,
        cadence_seconds: float,
        plan: FaultPlan | None,
        config_hash: str,
        compact_every: int,
    ):
        self.store = store
        self.cadence_seconds = cadence_seconds
        #: Fault plan whose process-level specs fire at checkpoint ticks.
        self.plan = plan
        self.config_hash = config_hash
        #: Delta entries tolerated before the next forced compaction.
        self.compact_every = compact_every
        self.controller = None
        self.seq = 0
        self.entries_since_snapshot = 0
        self.model_versions: dict[str, tuple] = {}
        #: Per warehouse, each log's sealed length at the last checkpoint.
        self.marks: dict[str, dict[str, int]] = {}
        #: Plan indices of process specs that already fired (one shot each).
        self.process_fired: set[int] = set()
        #: Fault kind value of a process fault that fired this tick; the
        #: harness consumes it between sim segments and performs the kill.
        self.pending_crash: str | None = None


class KeeboService:
    """The managed SaaS facade over one customer account."""

    def __init__(
        self,
        account: Account,
        fee_fraction: float = 0.3,
        client_factory: Callable[[Account], CloudWarehouseClient] | None = None,
    ):
        self.account = account
        self.pricing = ValueBasedPricing(fee_fraction, account.price_per_credit)
        #: Optional ``account -> CloudWarehouseClient`` hook; chaos runs use
        #: it to hand every optimizer a FaultingWarehouseClient.
        self.client_factory = client_factory
        self.optimizers: dict[str, WarehouseOptimizer] = {}
        self._durability: _DurabilityRuntime | None = None

    def onboard_warehouse(
        self,
        warehouse: str,
        slider: SliderPosition = SliderPosition.BALANCED,
        constraints: ConstraintSet | None = None,
        config: OptimizerConfig | None = None,
    ) -> WarehouseOptimizer:
        """Attach KWO to one warehouse (a separate smart model per warehouse)."""
        if warehouse not in self.account.warehouses:
            raise UnknownWarehouseError(warehouse)
        if warehouse in self.optimizers:
            raise ConfigurationError(f"{warehouse!r} is already being optimized")
        optimizer = self._new_optimizer(warehouse, slider, constraints, config)
        optimizer.onboard()
        self.optimizers[warehouse] = optimizer
        return optimizer

    def _new_optimizer(
        self,
        warehouse: str,
        slider: SliderPosition,
        constraints: ConstraintSet | None,
        config: OptimizerConfig | None,
    ) -> WarehouseOptimizer:
        """An optimizer over this account, on the client the factory gives."""
        client = self.client_factory(self.account) if self.client_factory else None
        return WarehouseOptimizer(
            self.account, warehouse, slider, constraints, config, client=client
        )

    def optimizer(self, warehouse: str) -> WarehouseOptimizer:
        try:
            return self.optimizers[warehouse]
        except KeyError:
            raise UnknownWarehouseError(warehouse) from None

    def set_slider(self, warehouse: str, slider: SliderPosition) -> None:
        self.optimizer(warehouse).set_slider(slider)

    def invoice(self, warehouse: str, window: Window) -> Invoice:
        estimate = self.optimizer(warehouse).estimate_savings(window)
        return self.pricing.invoice(warehouse, estimate)

    def invoices(self, window: Window) -> list[Invoice]:
        return [self.invoice(name, window) for name in sorted(self.optimizers)]

    def shutdown(self) -> None:
        for optimizer in self.optimizers.values():
            optimizer.shutdown()

    # ------------------------------------------------------------ durability
    @property
    def pending_crash(self) -> str | None:
        """Fault kind value of an un-consumed process fault, if any."""
        return None if self._durability is None else self._durability.pending_crash

    def consume_pending_crash(self) -> str | None:
        """Clear and return the pending process fault (harness handshake).

        The reference (uninterrupted) run of the crash harness calls this
        too — it executes the *identical* checkpoint-tick code, RNG draws
        included, and simply declines to kill anything.
        """
        if self._durability is None:
            return None
        kind, self._durability.pending_crash = self._durability.pending_crash, None
        return kind

    def enable_checkpoints(
        self,
        directory: Path | str,
        cadence_seconds: float,
        *,
        config_hash: str = "",
        process_plan: FaultPlan | None = None,
    ) -> None:
        """Start journaling control-plane state to ``directory``.

        Writes an initial full snapshot synchronously, then checkpoints
        every ``cadence_seconds``.  The periodic controller is offset by
        :data:`CHECKPOINT_OFFSET_SECONDS` past the cadence grid so a
        checkpoint always observes a *quiesced* post-tick state: decision
        controllers fire on round interval multiples, and two same-timestamp
        events dispatch in insertion order — a zero-offset checkpoint
        registered after onboarding would run *before* the optimizer ticks
        sharing its timestamp, silently excluding that tick from the
        durable state.

        ``process_plan`` arms process-level fault kinds (``crash_at_tick``
        and the corruption trio); each armed spec is evaluated at every
        checkpoint tick with draws from the ``faults.process`` registry
        stream and disarms permanently once fired.
        """
        if self._durability is not None:
            raise ConfigurationError("checkpoints are already enabled")
        if cadence_seconds <= 0:
            raise ConfigurationError("checkpoint cadence must be positive")
        store = CheckpointStore(directory)
        store.initialize(
            account=self.account.name,
            config_hash=config_hash,
            cadence_seconds=cadence_seconds,
        )
        self._durability = _DurabilityRuntime(
            store, cadence_seconds, process_plan, config_hash, CHECKPOINT_COMPACT_EVERY
        )
        self.checkpoint(force_snapshot=True)
        self._durability.controller = self.account.sim.add_controller(
            cadence_seconds,
            self._checkpoint_tick,
            start=self.account.sim.now + cadence_seconds + CHECKPOINT_OFFSET_SECONDS,
            name=f"durability[{self.account.name}]",
        )

    def checkpoint(self, force_snapshot: bool = False) -> str:
        """Write one durable unit; returns ``"snapshot"`` or ``"delta"``.

        Compaction triggers when any optimizer's :attr:`model_version`
        moved (arrays may have changed — a delta cannot carry them) or the
        journal reached ``compact_every`` entries.
        """
        d = self._durability
        if d is None:
            raise ConfigurationError("checkpoints are not enabled")
        now = self.account.sim.now
        names = sorted(self.optimizers)
        versions = {wh: self.optimizers[wh].model_version for wh in names}
        deltas, sealed = {}, {}
        for wh in names:
            deltas[wh], heads = self.optimizers[wh].delta_state(d.marks.get(wh, {}))
            sealed.update((f"{wh}/{name}", head) for name, head in heads.items() if head)
        if force_snapshot or versions != d.model_versions or (
            d.entries_since_snapshot >= d.compact_every
        ):
            d.store.write_snapshot(
                seq=d.seq, time=now, state_text=self._snapshot_text(deltas), sealed=sealed
            )
            d.entries_since_snapshot = 0
            d.model_versions = versions
            obs.counter("repro.durability.snapshots").inc(time=now)
            written = "snapshot"
        else:
            d.store.append(
                {
                    "seq": d.seq,
                    "kind": "delta",
                    "time": now,
                    **self._service_state(deltas),
                },
                sealed,
            )
            d.entries_since_snapshot += 1
            written = "delta"
        d.seq += 1
        # Each open tail starts at its log's sealed length: the next mark.
        d.marks = {
            wh: {name: tail["from"] for name, tail in deltas[wh]["logs"].items()} for wh in names
        }
        obs.counter("repro.durability.checkpoints").inc(time=now)
        obs.gauge("repro.durability.journal_entries").set(
            d.entries_since_snapshot, time=now
        )
        return written

    def _service_state(self, optimizers: dict | None) -> dict:
        d = self._durability
        return {
            "account": self.account.name,
            "compact_every": d.compact_every,
            "optimizers": optimizers,
            "rng_states": self.account.rngs.export_states(("keebo.", "faults.")),
            "process_fired": sorted(d.process_fired),
        }

    def _capture_state(self) -> dict:
        """The whole durable state, every log whole (what a restore rebuilds)."""
        names = sorted(self.optimizers)
        return self._service_state({wh: self.optimizers[wh].state_dict() for wh in names})

    def _snapshot_text(self, deltas: dict[str, dict]) -> str:
        """The snapshot state's canonical text, assembled from per-part texts
        (it equals ``canonical_json`` of the state it spells out), so the
        agent's unchanged text is not encoded again."""
        optimizers = {}
        for wh, delta in deltas.items():
            optimizer = self.optimizers[wh]
            state = {**optimizer.model_state(), **delta}
            parts = {key: canonical_json(value) for key, value in state.items()}
            optimizers[wh] = canonical_object({**parts, "agent": optimizer.agent.state_text()})
        parts = {key: canonical_json(value) for key, value in self._service_state(None).items()}
        return canonical_object({**parts, "optimizers": canonical_object(optimizers)})

    def _next_process_fault(self, now: float) -> FaultSpec | None:
        """First armed process spec that triggers this tick, if any.

        Mirrors the faulting client's contract: specs evaluate in plan
        order, evaluation stops at the first trigger, and only
        probabilistic specs consume randomness (from ``faults.process``).
        Each spec fires at most once per process lifetime.
        """
        d = self._durability
        if d.plan is None:
            return None
        rng = self.account.rngs.stream("faults.process")
        for index, spec in enumerate(d.plan.specs):
            if index in d.process_fired:
                continue
            if not (spec.targets(PROCESS_OPERATION) and spec.armed(now)):
                continue
            if spec.probability < 1.0 and not float(rng.random()) < spec.probability:
                continue
            d.process_fired.add(index)
            obs.emit(
                "fault.inject",
                now,
                operation=PROCESS_OPERATION,
                kind=spec.kind.value,
                detail=spec.detail,
            )
            obs.counter(f"repro.faults.injected.{spec.kind.value}").inc(time=now)
            return spec
        return None

    def _checkpoint_tick(self, now: float) -> None:
        """One durability controller fire: fault check, then the write.

        Ordering is load-bearing: the fired spec joins ``process_fired``
        (and its RNG draw lands) *before* the checkpoint is written, so the
        durable state already knows the fault fired — a restore can never
        re-fire it.  The corruption hooks run *after* the write: they model
        damage to this very checkpoint.
        """
        d = self._durability
        spec = self._next_process_fault(now)
        self.checkpoint()
        if spec is None:
            return
        if spec.kind is FaultKind.TORN_WRITE:
            d.store.inject_torn_write()
        elif spec.kind is FaultKind.TRUNCATED_JOURNAL:
            d.store.inject_truncated_journal()
        elif spec.kind is FaultKind.STALE_SNAPSHOT:
            d.store.inject_stale_snapshot()
        d.pending_crash = spec.kind.value

    def crash(self) -> None:
        """Simulate control-plane process death.

        The simulated *world* — account, warehouses, telemetry, billing,
        the event heap's workload arrivals — survives; only KWO-owned
        things die: controllers and pending retries are cancelled, the
        optimizer map is cleared, and every ``keebo.*``/``faults.*`` RNG
        stream is evicted so a later :meth:`restore` re-derives fresh
        generator objects and rewinds them from the journal.  Emits no
        observability: a dead process writes nothing.
        """
        for warehouse in sorted(self.optimizers):
            optimizer = self.optimizers[warehouse]
            if optimizer._controller is not None:
                optimizer._controller.stop()
            if optimizer.actuator is not None:
                optimizer.actuator.cancel_pending_retries()
        if self._durability is not None and self._durability.controller is not None:
            self._durability.controller.stop()
        self._durability = None
        self.optimizers = {}
        self.account.rngs.evict(("keebo.", "faults."))

    def restore(
        self,
        directory: Path | str,
        *,
        slider: SliderPosition = SliderPosition.BALANCED,
        constraints: ConstraintSet | None = None,
        optimizer_config: OptimizerConfig | None = None,
        config_hash: str | None = None,
        process_plan: FaultPlan | None = None,
        repair: bool = False,
    ) -> CheckpointLoad:
        """Rebuild the service from a checkpoint directory and resume.

        All-or-nothing: any corruption, schema mismatch, or malformed state
        raises :class:`RecoveryError` and leaves the service empty — never
        a silently partial restore.  ``repair=True`` additionally truncates
        a torn journal *tail* (the expected residue of a crash mid-append);
        corruption anywhere earlier stays fatal either way.

        The deployment inputs (``slider``, ``constraints``,
        ``optimizer_config``, ``process_plan``) are configuration, not
        state — the operator restarting the service supplies the same
        values the crashed process ran with, and ``config_hash`` guards
        against supplying different ones.  Restore performs no onboarding:
        no telemetry fetch, no training, no vendor calls, no RNG draws
        survive (construction draws are overwritten from the journal).
        Emits exactly one ``service.restore`` trace event and no metrics,
        so a recovered run's exports differ from an uninterrupted run's by
        that event alone.
        """
        if self.optimizers or self._durability is not None:
            raise ConfigurationError(
                "cannot restore into a live service; crash() or use a fresh service"
            )
        store = CheckpointStore(directory)
        load = store.load(expected_config_hash=config_hash, repair=repair)
        try:
            state = merge_checkpoint_entries(load.state, load.entries, load.sealed)
            self._rebuild(
                store, load, state, slider, constraints, optimizer_config, process_plan
            )
        except RecoveryError:
            self.optimizers = {}
            self._durability = None
            raise
        except (KeyError, TypeError, ValueError) as exc:
            self.optimizers = {}
            self._durability = None
            raise RecoveryError(f"malformed checkpoint state: {exc!r}") from exc
        return load

    def _rebuild(
        self,
        store: CheckpointStore,
        load: CheckpointLoad,
        state: dict,
        slider: SliderPosition,
        constraints: ConstraintSet | None,
        optimizer_config: OptimizerConfig | None,
        process_plan: FaultPlan | None,
    ) -> None:
        now = self.account.sim.now
        names = sorted(state["optimizers"])
        for warehouse in names:
            optimizer = self._new_optimizer(
                warehouse, slider, constraints, optimizer_config
            )
            optimizer.load_durable_state(state["optimizers"][warehouse])
            self.optimizers[warehouse] = optimizer
        # After every component exists: construction draws (agent weight
        # init) are discarded by rewinding the streams to their journaled
        # states.  Order matters — restoring first would lose the rewind.
        self.account.rngs.restore_states(state["rng_states"])
        for warehouse in names:
            optimizer = self.optimizers[warehouse]
            optimizer._controller = self.account.sim.add_controller(
                optimizer.config.decision_interval,
                optimizer._tick,
                start=float(state["optimizers"][warehouse]["controller_next_fire"]),
                name=f"optimizer[{warehouse}]",
            )
        d = _DurabilityRuntime(
            store,
            float(load.manifest["cadence_seconds"]),
            process_plan,
            load.manifest["config_hash"],
            int(state["compact_every"]),
        )
        d.seq = int(load.snapshot["seq"]) + len(load.entries) + 1
        d.entries_since_snapshot = len(load.entries)
        d.model_versions = {wh: self.optimizers[wh].model_version for wh in names}
        d.marks = {
            wh: {name: log.sealed for name, log in self.optimizers[wh].logs().items()}
            for wh in names
        }
        d.process_fired = set(state["process_fired"])
        last_time = (
            float(load.entries[-1]["time"]) if load.entries
            else float(load.snapshot["time"])
        )
        d.controller = self.account.sim.add_controller(
            d.cadence_seconds,
            self._checkpoint_tick,
            start=last_time + d.cadence_seconds,
            name=f"durability[{self.account.name}]",
        )
        self._durability = d
        for warehouse in names:
            self.optimizers[warehouse].actuator.restore_pending_retries(
                state["optimizers"][warehouse]["pending_retries"]
            )
        obs.emit(
            "service.restore",
            now,
            account=self.account.name,
            snapshot_seq=load.snapshot["seq"],
            journal_entries=len(load.entries),
            repairs=len(load.repairs),
        )
