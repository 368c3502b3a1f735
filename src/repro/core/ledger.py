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

:class:`LiveLedger` is the streaming half: it keeps an
:class:`~repro.costmodel.incremental.IncrementalReplay` warm over the
*open* report period so the projected without-Keebo cost is available on
every decision tick at O(delta) cost, instead of only once per
``report_interval`` after a full-window recompute.  At each period close
the streamed projection is reconciled against the authoritative full
estimate — the two are bit-identical whenever the period boundaries
line up, which turns the reconciliation into a free runtime self-check
of the incremental ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.simtime import Window
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.incremental import IncrementalReplay
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.model import SavingsEstimate
from repro.costmodel.replay import ReplayResult
from repro.durability.codec import decode_window, encode_window, require_keys
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

    def total_billable_credits(self, window: Window | None = None) -> float:
        """Only positive periods are billable (no savings, no charges)."""
        return sum(
            max(e.savings_credits, 0.0)
            for e in self.entries
            if window is None or window.overlap(e.window) > 0
        )

    def series(self) -> list[tuple[float, float]]:
        """(period end, savings credits) pairs for plotting."""
        return [(e.window.end, e.savings_credits) for e in self.entries]

    @property
    def periods_reported(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LiveReconciliation:
    """One closed period's streamed projection vs the authoritative estimate.

    ``aligned`` is True when the streamed period's boundaries matched the
    report period exactly; only then is ``divergence`` meaningful.  An
    aligned divergence must be ``0.0`` to the bit — both sides replay the
    same rows under the same models — so any non-zero value is an
    incremental-ledger defect surfacing at runtime, not noise.
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

    def __init__(
        self,
        warehouse: str,
        latency_model: LatencyScalingModel,
        gap_model: GapModel,
        cluster_predictor: ClusterCountPredictor,
        period: Window,
    ):
        self.warehouse = warehouse
        self.latency_model = latency_model
        self.gap_model = gap_model
        self.cluster_predictor = cluster_predictor
        self.cursor = period.start
        self.reconciliations: list[LiveReconciliation] = []
        self.unaligned_periods = 0
        self._seen: set = set()
        self.replay = self._fresh_replay(period)

    def _fresh_replay(self, period: Window) -> IncrementalReplay:
        return IncrementalReplay(
            self.latency_model,
            self.gap_model,
            self.cluster_predictor,
            period,
        )

    @property
    def period(self) -> Window:
        return self.replay.window

    @property
    def rows_streamed(self) -> int:
        return self.replay.n_records

    # -------------------------------------------------------------- streaming
    def ingest(self, records: list[QueryRecord], now: float) -> int:
        """Stream the period's completed rows; returns how many were new."""
        period = self.period
        fresh = 0
        for record in records:
            if record.query_id in self._seen:
                continue
            if not (period.start <= record.arrival_time < period.end):
                continue
            self.replay.observe(record)
            self._seen.add(record.query_id)
            fresh += 1
        self.cursor = max(self.cursor, now)
        return fresh

    def projection(self, config: WarehouseConfig) -> ReplayResult:
        """The running what-if for the open period."""
        return self.replay.result(config)

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
        """Open the next period with a fresh streaming replay."""
        self.replay = self._fresh_replay(period)
        self._seen = set()
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

    def state_dict(self) -> dict:
        """Canonical durable state (StateCodec vocabulary).

        The replay's row *contents* are deliberately not captured — restore
        re-feeds them from telemetry (which survives a control-plane crash)
        and :meth:`IncrementalReplay.verify_restored` checks count and
        checksum, mirroring how the rest of the control plane never
        duplicates telemetry into checkpoints.  ``reconciliations`` is an
        append-only log; the optimizer's checkpoint carries it.
        """
        return {
            "warehouse": self.warehouse,
            "cursor": self.cursor,
            "unaligned_periods": self.unaligned_periods,
            "replay": self.replay.state_dict(),
        }

    def load_state_dict(self, state: dict, records: list[QueryRecord]) -> None:
        """Restore from a checkpoint plus the telemetry rows to re-feed.

        ``records`` is the period's QUERY_HISTORY; only rows that were
        visible at the checkpoint (completed by ``cursor``) are replayed,
        and the restored ledger must match the captured row count and
        id-checksum byte for byte or a ``RecoveryError`` surfaces.
        """
        require_keys(state, ("warehouse", "cursor", "unaligned_periods", "replay"), "LiveLedger")
        self.warehouse = state["warehouse"]
        self.cursor = float(state["cursor"])
        self.unaligned_periods = int(state["unaligned_periods"])
        period = decode_window(state["replay"]["window"])
        self.replay = self._fresh_replay(period)
        self.replay.load_state_dict(state["replay"])
        self._seen = set()
        for record in records:
            if record.query_id in self._seen:
                continue
            if not (period.start <= record.arrival_time < period.end):
                continue
            if record.end_time > self.cursor:
                continue  # not yet visible when the checkpoint was taken
            self.replay.observe(record)
            self._seen.add(record.query_id)
        self.replay.verify_restored()
