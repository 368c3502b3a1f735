"""The savings ledger: Algorithm 1's reporting step (lines 18-19).

The optimization loop doesn't just act — it periodically estimates the
savings its actions produced (``savings <- cm.estimateSavings(...)``) and
reports them (``report(action[], feedback[], savings)``).  The ledger is
that report stream: an append-only series of per-period savings entries the
dashboards, invoices and the onboarding-curve analysis all read from.

Keeping the ledger inside the loop (rather than recomputing savings ad hoc)
matters for value-based pricing: the invoice amount is exactly the sum of
what was reported to the customer, period by period, not a retroactive
recomputation under a later (possibly refitted) cost model.

:class:`LiveLedger` is the streaming half: it keeps the open report
period's completed QUERY_HISTORY rows so the projected without-Keebo cost
is available on every decision tick, as one replay of those rows by the
cost model's :class:`~repro.costmodel.replay.QueryReplay`.  At each
period close the streamed projection is reconciled against the
authoritative full estimate.  Both sides run the same replay program, so
they are bit-identical whenever the period boundaries line up and the
ledger admitted exactly the rows the estimate fetched, which turns the
reconciliation into a free runtime self-check of the ledger's row
admission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.simtime import Window
from repro.costmodel.model import SavingsEstimate
from repro.costmodel.replay import QueryReplay, ReplayResult
from repro.durability.codec import decode_window, encode_window, require_keys, state_checksum
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord


@dataclass(frozen=True)
class LedgerEntry:
    """One reported period."""

    window: Window
    without_keebo_credits: float
    with_keebo_credits: float
    n_actions: int
    n_backoffs: int

    @property
    def savings_credits(self) -> float:
        return self.without_keebo_credits - self.with_keebo_credits


@dataclass
class SavingsLedger:
    """Append-only per-period savings reports for one warehouse."""

    warehouse: str
    entries: list[LedgerEntry] = field(default_factory=list)

    def report(
        self, estimate: SavingsEstimate, n_actions: int, n_backoffs: int
    ) -> LedgerEntry:
        if self.entries and estimate.window.start < self.entries[-1].window.end - 1e-9:
            raise ConfigurationError("ledger periods must not overlap")
        entry = LedgerEntry(
            window=estimate.window,
            without_keebo_credits=estimate.without_keebo_credits,
            with_keebo_credits=estimate.with_keebo_credits,
            n_actions=n_actions,
            n_backoffs=n_backoffs,
        )
        self.entries.append(entry)
        return entry

    # ----------------------------------------------------------- durability
    @staticmethod
    def encode_entry(entry: LedgerEntry) -> dict:
        return {
            "window": encode_window(entry.window),
            "without_keebo_credits": entry.without_keebo_credits,
            "with_keebo_credits": entry.with_keebo_credits,
            "n_actions": entry.n_actions,
            "n_backoffs": entry.n_backoffs,
        }

    @staticmethod
    def decode_entry(state: dict) -> LedgerEntry:
        return LedgerEntry(
            window=decode_window(state["window"]),
            without_keebo_credits=float(state["without_keebo_credits"]),
            with_keebo_credits=float(state["with_keebo_credits"]),
            n_actions=int(state["n_actions"]),
            n_backoffs=int(state["n_backoffs"]),
        )

    # ------------------------------------------------------------- queries
    def total_savings_credits(self, window: Window | None = None) -> float:
        return sum(
            e.savings_credits
            for e in self.entries
            if window is None or window.overlap(e.window) > 0
        )

    def series(self) -> list[tuple[float, float]]:
        """(period end, savings credits) pairs for plotting."""
        return [(e.window.end, e.savings_credits) for e in self.entries]


@dataclass(frozen=True)
class LiveReconciliation:
    """One closed period's streamed projection vs the authoritative estimate.

    ``aligned`` is True when the streamed period's boundaries matched the
    report period exactly; only then is ``divergence`` meaningful.  An
    aligned divergence must be ``0.0`` to the bit — both sides replay the
    same rows with the same program and models — so any non-zero value is
    a live-ledger defect surfacing at runtime, not noise.
    """

    window: Window
    aligned: bool
    projected_credits: float
    estimated_credits: float
    divergence: float
    rows_streamed: int


class LiveLedger:
    """Streaming realized-vs-projected savings for one warehouse.

    Feed completed QUERY_HISTORY rows with :meth:`ingest` (idempotent per
    query id — the open period is re-scanned every tick because rows only
    become visible at completion), read the running projection with
    :meth:`projection`, close a period with :meth:`reconcile` and start
    the next with :meth:`roll`.
    """

    def __init__(self, warehouse: str, replay: QueryReplay, period: Window):
        self.warehouse = warehouse
        self.replay = replay
        self.period = period
        self.cursor = period.start
        self.reconciliations: list[LiveReconciliation] = []
        self.unaligned_periods = 0
        #: The period's streamed rows by query id, in admission order.
        self._rows: dict[int, QueryRecord] = {}
        #: ``(key, result)`` of the last :meth:`projection`.
        self._projection: tuple | None = None

    @property
    def rows_streamed(self) -> int:
        return len(self._rows)

    # -------------------------------------------------------------- streaming
    def _admit(self, records: list[QueryRecord], visible_at: float = math.inf) -> int:
        """Keep the new rows arriving inside the period and completed by
        ``visible_at``; returns how many were kept."""
        period = self.period
        fresh = 0
        for record in records:
            if record.query_id in self._rows:
                continue
            if not (period.start <= record.arrival_time < period.end):
                continue
            if record.end_time > visible_at:
                continue
            self._rows[record.query_id] = record
            fresh += 1
        return fresh

    def ingest(self, records: list[QueryRecord], now: float) -> int:
        """Stream the period's completed rows; returns how many were new."""
        fresh = self._admit(records)
        self.cursor = max(self.cursor, now)
        return fresh

    def projection(self, config: WarehouseConfig) -> ReplayResult:
        """The running what-if for the open period: the cost model's replay
        of the rows streamed so far.

        It runs the replay's unobserved tail, so a projection per tick adds
        no trace record (the authoritative estimate at period close is the
        observed replay).  A tick that streamed no new row asks the same
        question again, so the last result is kept under the config, the
        row count (rows are only ever added to an open period) and the
        replay's fit generation (a cost-model refit changes the answer for
        the same rows).
        """
        key = (config, self.rows_streamed, self.replay.fit_generation)
        if self._projection is None or self._projection[0] != key:
            history = self.replay.history(list(self._rows.values()), self.period)
            self._projection = (key, self.replay.tail(history, config))
        return self._projection[1]

    # ------------------------------------------------------------- period end
    def reconcile(
        self, estimate: SavingsEstimate, original: WarehouseConfig
    ) -> LiveReconciliation:
        """Close the books on one period against the authoritative estimate.

        ``original`` is the without-Keebo baseline configuration the full
        estimate replayed under (resolved at the period end, so a customer
        config change mid-period reaches both sides identically).
        """
        period = self.period
        aligned = (
            estimate.window.start == period.start
            and estimate.window.end == period.end
        )
        projected = self.projection(original).credits
        divergence = projected - estimate.without_keebo_credits if aligned else 0.0
        if not aligned:
            self.unaligned_periods += 1
        entry = LiveReconciliation(
            window=estimate.window,
            aligned=aligned,
            projected_credits=projected,
            estimated_credits=estimate.without_keebo_credits,
            divergence=divergence,
            rows_streamed=self.rows_streamed,
        )
        self.reconciliations.append(entry)
        return entry

    def roll(self, period: Window) -> None:
        """Open the next period with no rows streamed."""
        self.period = period
        self._rows = {}
        self._projection = None
        self.cursor = period.start

    # ------------------------------------------------------------- durability
    @staticmethod
    def encode_reconciliation(entry: LiveReconciliation) -> dict:
        return {
            "window": encode_window(entry.window),
            "aligned": entry.aligned,
            "projected_credits": entry.projected_credits,
            "estimated_credits": entry.estimated_credits,
            "divergence": entry.divergence,
            "rows_streamed": entry.rows_streamed,
        }

    @staticmethod
    def decode_reconciliation(state: dict) -> LiveReconciliation:
        return LiveReconciliation(
            window=decode_window(state["window"]),
            aligned=bool(state["aligned"]),
            projected_credits=float(state["projected_credits"]),
            estimated_credits=float(state["estimated_credits"]),
            divergence=float(state["divergence"]),
            rows_streamed=int(state["rows_streamed"]),
        )

    def _id_checksum(self) -> str:
        return state_checksum({"ids": sorted(self._rows)})

    def state_dict(self) -> dict:
        """Canonical durable state (StateCodec vocabulary).

        The row *contents* are deliberately not captured — restore re-feeds
        them from telemetry (which survives a control-plane crash) and
        checks them against the captured count and id checksum, mirroring
        how the rest of the control plane never duplicates telemetry into
        checkpoints.  ``reconciliations`` is an append-only log; the
        optimizer's checkpoint carries it.
        """
        return {
            "warehouse": self.warehouse,
            "cursor": self.cursor,
            "unaligned_periods": self.unaligned_periods,
            "replay": {
                "window": encode_window(self.period),
                "n_records": self.rows_streamed,
                "id_checksum": self._id_checksum(),
            },
        }

    def load_state_dict(self, state: dict, records: list[QueryRecord]) -> None:
        """Restore from a checkpoint plus the telemetry rows to re-feed.

        ``records`` is the period's QUERY_HISTORY; only rows that were
        visible at the checkpoint (completed by ``cursor``) are re-admitted,
        and the restored ledger must match the captured row count and
        id checksum or a ``RecoveryError`` surfaces.
        """
        require_keys(state, ("warehouse", "cursor", "unaligned_periods", "replay"), "LiveLedger")
        streamed = state["replay"]
        require_keys(streamed, ("window", "n_records", "id_checksum"), "LiveLedger replay")
        self.warehouse = state["warehouse"]
        self.cursor = float(state["cursor"])
        self.unaligned_periods = int(state["unaligned_periods"])
        self.period = decode_window(streamed["window"])
        self._rows = {}
        self._projection = None
        self._admit(records, visible_at=self.cursor)
        n, checksum = int(streamed["n_records"]), str(streamed["id_checksum"])
        if self.rows_streamed != n or self._id_checksum() != checksum:
            raise RecoveryError(
                f"live ledger restore mismatch: re-fed {self.rows_streamed} rows "
                f"(checksum {self._id_checksum()[:12]}), checkpoint recorded "
                f"{n} (checksum {checksum[:12]})"
            )
