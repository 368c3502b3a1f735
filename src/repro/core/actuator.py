"""The actuator (§4.5): translates decided actions into vendor API calls.

The actuator is the only KWO component that issues writes against the CDW.
It keeps a full log of applied actions (for dashboards, §4.1), knows how to
*revert* to the customer's original configuration (used on external-change
conflicts and back-offs), and tells the monitor what configuration it
expects so external changes are detectable.

Hardened against vendor flakiness (docs/ROBUSTNESS.md):

* **Bounded retries** — a failed write schedules a retry on the simulation
  event loop with deterministic exponential backoff plus seeded jitter,
  up to :attr:`RetryPolicy.max_attempts`.  A newer ``apply`` supersedes
  any pending retry (the retry carries a generation number and aborts
  silently when stale).
* **Circuit breaker** — after ``failure_threshold`` consecutive write
  failures the per-warehouse breaker opens: writes are skipped (logged as
  failed entries) until a cool-down elapses, then one half-open probe is
  allowed through; its outcome closes or re-opens the breaker.
* **Read-back verification** — after every attempt the actuator reads the
  live configuration back and reconciles ``monitor.set_expected_config``
  with what *actually* happened, so partial writes and ambiguous timeouts
  (the write landed, the response didn't) never desynchronise the
  external-change detector.  Both the pre-write read and the read-back are
  guarded: a failing read is recorded on the log entry, never raised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, WarehouseError
from repro.common.rng import fallback_rng
from repro.core.monitoring import Monitor
from repro.durability.codec import decode_config, encode_config, require_keys
from repro.obs import trace as obs
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff for failed actuations.

    Attempt ``k`` (1-based) failing schedules attempt ``k+1`` after
    ``base_delay_seconds * multiplier**(k-1)`` seconds, capped at
    ``max_delay_seconds`` and scaled by a seeded jitter factor in
    ``[1 - jitter_fraction, 1 + jitter_fraction]``.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 5.0
    multiplier: float = 2.0
    max_delay_seconds: float = 120.0
    jitter_fraction: float = 0.2

    def delay_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based)."""
        raw = min(
            self.base_delay_seconds * self.multiplier ** (attempt - 1),
            self.max_delay_seconds,
        )
        if self.jitter_fraction > 0:
            raw *= 1.0 + self.jitter_fraction * float(2.0 * rng.random() - 1.0)
        return max(0.0, raw)

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay_seconds": self.base_delay_seconds,
            "multiplier": self.multiplier,
            "max_delay_seconds": self.max_delay_seconds,
            "jitter_fraction": self.jitter_fraction,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RetryPolicy":
        require_keys(
            state,
            (
                "max_attempts",
                "base_delay_seconds",
                "multiplier",
                "max_delay_seconds",
                "jitter_fraction",
            ),
            "RetryPolicy",
        )
        return cls(
            max_attempts=int(state["max_attempts"]),
            base_delay_seconds=float(state["base_delay_seconds"]),
            multiplier=float(state["multiplier"]),
            max_delay_seconds=float(state["max_delay_seconds"]),
            jitter_fraction=float(state["jitter_fraction"]),
        )


class BreakerState(enum.Enum):
    CLOSED = "closed"  # healthy: writes flow
    OPEN = "open"  # tripped: writes skipped until cool-down
    HALF_OPEN = "half_open"  # probing: one write allowed through


class CircuitBreaker:
    """Consecutive-failure breaker for one warehouse's write path."""

    def __init__(self, failure_threshold: int = 3, cooldown_seconds: float = 1800.0):
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.opens = 0

    @property
    def is_open(self) -> bool:
        return self.state is BreakerState.OPEN

    def blocking(self, now: float) -> bool:
        """True while writes must be skipped (open, cool-down not elapsed)."""
        if self.state is not BreakerState.OPEN:
            return False
        return now - self.opened_at < self.cooldown_seconds

    def begin_attempt(self, now: float) -> bool:
        """Gate one write attempt; transitions OPEN→HALF_OPEN when probing."""
        if self.blocking(now):
            return False
        if self.state is BreakerState.OPEN:
            self.state = BreakerState.HALF_OPEN
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            self.opened_at = None
            obs.emit("actuator.breaker.close", now)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        failed_probe = self.state is BreakerState.HALF_OPEN
        if failed_probe or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.opens += 1
            obs.emit(
                "actuator.breaker.open",
                now,
                consecutive_failures=self.consecutive_failures,
                probe_failed=failed_probe,
            )

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        return {
            "failure_threshold": self.failure_threshold,
            "cooldown_seconds": self.cooldown_seconds,
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "opened_at": self.opened_at,
            "opens": self.opens,
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            (
                "failure_threshold",
                "cooldown_seconds",
                "state",
                "consecutive_failures",
                "opened_at",
                "opens",
            ),
            "CircuitBreaker",
        )
        self.failure_threshold = int(state["failure_threshold"])
        self.cooldown_seconds = float(state["cooldown_seconds"])
        self.state = BreakerState(state["state"])
        self.consecutive_failures = int(state["consecutive_failures"])
        opened_at = state["opened_at"]
        self.opened_at = None if opened_at is None else float(opened_at)
        self.opens = int(state["opens"])


@dataclass(frozen=True)
class AppliedAction:
    """One entry of the actuator's action log."""

    time: float
    warehouse: str
    from_config: WarehouseConfig
    to_config: WarehouseConfig
    reason: str
    succeeded: bool
    error: str = ""
    #: 1-based attempt number (retries append fresh entries).
    attempt: int = 1
    #: Non-empty when the post-apply configuration read-back failed.
    read_back_error: str = ""

    @property
    def changed(self) -> bool:
        return self.from_config != self.to_config


class Actuator:
    """Applies target configurations through the vendor API."""

    def __init__(
        self,
        client: CloudWarehouseClient,
        warehouse: str,
        monitor: Monitor,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.client = client
        self.warehouse = warehouse
        self.monitor = monitor
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self._rng = rng if rng is not None else fallback_rng()
        self.log: list[AppliedAction] = []
        self.errors = 0
        self.retries_scheduled = 0
        #: Bumped by every externally-requested apply; stale retries abort.
        self._generation = 0
        #: In-flight retry events (due time + payload), so a checkpoint can
        #: journal them and a crash teardown can cancel them.
        self._pending_retries: list[dict] = []

    def apply(self, target: WarehouseConfig, reason: str) -> AppliedAction:
        """Move the warehouse to ``target``; no-ops are logged but free."""
        self._generation += 1
        return self._apply_attempt(target, reason, attempt=1, generation=self._generation)

    def revert_to(self, config: WarehouseConfig, reason: str) -> AppliedAction:
        """Restore a previous configuration (self-correction / conflicts)."""
        return self.apply(config, reason=f"revert: {reason}")

    # ------------------------------------------------------------- internals
    def _apply_attempt(
        self, target: WarehouseConfig, reason: str, attempt: int, generation: int
    ) -> AppliedAction:
        now = self.client.now
        wh = self.warehouse.lower()
        if not self.breaker.begin_attempt(now):
            entry = AppliedAction(
                now, self.warehouse, target, target, reason, False,
                error="circuit breaker open", attempt=attempt,
            )
            self.log.append(entry)
            obs.alerts().fire(
                f"actuator.breaker.{wh}", now, severity="critical",
                warehouse=self.warehouse,
            )
            return entry
        try:
            current = self.client.current_config(self.warehouse)
        except WarehouseError as exc:
            # Satellite fix: the pre-write read itself can fail under a
            # flaky vendor; record it instead of crashing the tick.
            self.errors += 1
            entry = AppliedAction(
                now, self.warehouse, target, target, reason, False,
                error=f"config read failed: {exc}", attempt=attempt,
                read_back_error=str(exc),
            )
            self.log.append(entry)
            self._maybe_schedule_retry(target, reason, attempt, generation, now)
            return entry
        if target == current:
            entry = AppliedAction(
                now, self.warehouse, current, current, reason, True, attempt=attempt
            )
            self.log.append(entry)
            self.monitor.set_expected_config(current)
            return entry
        error = ""
        write_ok = True
        try:
            self.client.alter_warehouse(
                self.warehouse,
                size=target.size,
                auto_suspend_seconds=target.auto_suspend_seconds,
                min_clusters=target.min_clusters,
                max_clusters=target.max_clusters,
                scaling_policy=target.scaling_policy,
            )
        except WarehouseError as exc:
            # Report and keep going (§4.5: "reports any errors it encounters").
            write_ok = False
            error = str(exc)
            self.errors += 1
        # Read-back verification: reconcile with what *actually* happened —
        # a timeout whose write landed, or a partial write, must still leave
        # the monitor expecting the live configuration.
        read_back_error = ""
        actual = None
        try:
            actual = self.client.current_config(self.warehouse)
        except WarehouseError as exc:
            read_back_error = str(exc)
        if actual is not None:
            succeeded = actual == target
            reached = actual
            self.monitor.set_expected_config(actual)
        else:
            # Both the write response and the read-back are unknown: trust
            # the write's reported outcome so the expected config tracks the
            # most likely live state.
            succeeded = write_ok
            reached = target if write_ok else current
            self.monitor.set_expected_config(reached)
        if succeeded and not write_ok:
            error = f"reconciled by read-back after: {error}"
        entry = AppliedAction(
            now, self.warehouse, current, reached, reason, succeeded,
            error=error, attempt=attempt, read_back_error=read_back_error,
        )
        self.log.append(entry)
        if succeeded:
            self.breaker.record_success(now)
            obs.alerts().resolve(f"actuator.breaker.{wh}", now)
        else:
            self.breaker.record_failure(now)
            if self.breaker.is_open:
                obs.alerts().fire(
                    f"actuator.breaker.{wh}", now, severity="critical",
                    warehouse=self.warehouse,
                )
            self._maybe_schedule_retry(target, reason, attempt, generation, now)
        return entry

    def _maybe_schedule_retry(
        self,
        target: WarehouseConfig,
        reason: str,
        attempt: int,
        generation: int,
        now: float,
    ) -> None:
        if attempt >= self.retry_policy.max_attempts:
            return
        if self.breaker.blocking(now):
            return  # the breaker owns recovery pacing now
        delay = self.retry_policy.delay_seconds(attempt, self._rng)
        self.retries_scheduled += 1
        obs.emit(
            "actuator.retry_scheduled",
            now,
            warehouse=self.warehouse,
            attempt=attempt + 1,
            delay=delay,
        )
        self._schedule_retry(now + delay, target, reason, attempt + 1, generation)

    def _schedule_retry(
        self, due: float, target: WarehouseConfig, reason: str, attempt: int, generation: int
    ) -> None:
        entry = {
            "due": due,
            "target": target,
            "reason": reason,
            "attempt": attempt,
            "generation": generation,
        }
        retry = _RetryActuation(self, target, reason, attempt, generation, entry)
        entry["handle"] = self.client.account.sim.schedule(
            due, retry, label=f"actuator-retry[{self.warehouse}]"
        )
        self._pending_retries.append(entry)

    def cancel_pending_retries(self) -> None:
        """Cancel every in-flight retry event (crash teardown)."""
        for entry in self._pending_retries:
            entry["handle"].cancel()
        self._pending_retries.clear()

    def pending_retry_state(self) -> list[dict]:
        """Journal-ready view of the in-flight retries, ordered by due time."""
        return [
            {
                "due": e["due"],
                "target": encode_config(e["target"]),
                "reason": e["reason"],
                "attempt": e["attempt"],
                "generation": e["generation"],
            }
            for e in sorted(self._pending_retries, key=lambda e: e["due"])
        ]

    def restore_pending_retries(self, entries: list[dict]) -> None:
        """Re-schedule journaled retries at their original due times.

        No ``actuator.retry_scheduled`` events are re-emitted — the
        original emission is already in the pre-crash trace.
        """
        for e in entries:
            self._schedule_retry(
                float(e["due"]),
                decode_config(e["target"]),
                e["reason"],
                int(e["attempt"]),
                int(e["generation"]),
            )

    @property
    def last_applied(self) -> AppliedAction | None:
        return self.log[-1] if self.log else None

    def actions_taken(self) -> list[AppliedAction]:
        """Only the entries that actually changed the warehouse."""
        return [a for a in self.log if a.changed and a.succeeded]

    # ----------------------------------------------------------- durability
    @staticmethod
    def encode_log_entry(entry: AppliedAction) -> dict:
        return {
            "time": entry.time,
            "warehouse": entry.warehouse,
            "from_config": encode_config(entry.from_config),
            "to_config": encode_config(entry.to_config),
            "reason": entry.reason,
            "succeeded": entry.succeeded,
            "error": entry.error,
            "attempt": entry.attempt,
            "read_back_error": entry.read_back_error,
        }

    @staticmethod
    def decode_log_entry(state: dict) -> AppliedAction:
        return AppliedAction(
            time=float(state["time"]),
            warehouse=state["warehouse"],
            from_config=decode_config(state["from_config"]),
            to_config=decode_config(state["to_config"]),
            reason=state["reason"],
            succeeded=bool(state["succeeded"]),
            error=state["error"],
            attempt=int(state["attempt"]),
            read_back_error=state["read_back_error"],
        )

    def state_dict(self) -> dict:
        """Counters + breaker/policy state (StateCodec).

        The log is an append-only log; the optimizer's checkpoint carries
        it.  Pending retries are exported separately
        (:meth:`pending_retry_state`) because restoring them schedules
        simulator events, which the service sequences explicitly after all
        components exist.
        """
        return {
            "errors": self.errors,
            "retries_scheduled": self.retries_scheduled,
            "generation": self._generation,
            "retry_policy": self.retry_policy.state_dict(),
            "breaker": self.breaker.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            ("errors", "retries_scheduled", "generation", "retry_policy", "breaker"),
            "Actuator",
        )
        self.errors = int(state["errors"])
        self.retries_scheduled = int(state["retries_scheduled"])
        self._generation = int(state["generation"])
        self.retry_policy = RetryPolicy.from_state(state["retry_policy"])
        self.breaker.load_state_dict(state["breaker"])


class _RetryActuation:
    """A scheduled retry; aborts silently when a newer apply superseded it."""

    __slots__ = ("actuator", "target", "reason", "attempt", "generation", "entry")

    def __init__(
        self,
        actuator: Actuator,
        target: WarehouseConfig,
        reason: str,
        attempt: int,
        generation: int,
        entry: dict | None = None,
    ):
        self.actuator = actuator
        self.target = target
        self.reason = reason
        self.attempt = attempt
        self.generation = generation
        self.entry = entry

    def __call__(self) -> None:
        if self.entry is not None and self.entry in self.actuator._pending_retries:
            self.actuator._pending_retries.remove(self.entry)
        if self.generation != self.actuator._generation:
            return  # superseded by a newer decision
        self.actuator._apply_attempt(
            self.target, self.reason, attempt=self.attempt, generation=self.generation
        )
