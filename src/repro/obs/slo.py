"""Declarative SLOs evaluated over sim-time metric series.

An :class:`SLOSpec` states an objective over one bucketed series from
:mod:`repro.obs.series` — e.g. *the per-bucket max of
``repro.monitor.etl_wh.latency_ratio`` stays ≤ 1.5* — and the engine
evaluates it with **multi-window burn-rate** logic (the SRE-workbook
pattern): a violation fires only when the fraction of objective-breaking
buckets exceeds ``burn_threshold`` over *both* a long window (sustained
damage) and a short window (still happening now), and resolves when the
short window recovers.  That makes violations robust to a single noisy
bucket while still latching quickly onto real regressions.

Everything is deterministic: buckets fold in emission order, windows are
measured in whole buckets, and violations carry exact sim-time stamps
(the end of the bucket whose evaluation flipped the state).  Reports
export as byte-stable sorted JSON — same-seed runs agree to the byte
(``tests/props/test_obs_series_determinism.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.simtime import HOUR
from repro.common.stable_json import canonical_json
from repro.obs.metrics import ObservabilityError
from repro.obs.series import AGGREGATES, SeriesRegistry

_OPS = ("le", "ge")


@dataclass(frozen=True)
class SLOSpec:
    """One objective over one metric series.

    A bucket is *bad* when its ``aggregate`` scalar breaks
    ``op threshold`` (``le``: value must stay ≤ threshold; ``ge``: value
    must stay ≥ threshold).
    """

    name: str
    metric: str
    threshold: float
    op: str = "le"
    aggregate: str = "max"
    #: Long burn window (sustained damage), in sim seconds.
    window_seconds: float = 1 * HOUR
    #: Short confirmation window (still burning), in sim seconds.
    short_window_seconds: float = 900.0
    #: Fraction of bad buckets within a window that counts as burning.
    burn_threshold: float = 0.5
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise ObservabilityError(f"SLO {self.name!r}: op must be one of {_OPS}")
        if self.aggregate not in AGGREGATES:
            raise ObservabilityError(
                f"SLO {self.name!r}: aggregate must be one of {AGGREGATES}"
            )
        if self.window_seconds <= 0 or self.short_window_seconds <= 0:
            raise ObservabilityError(f"SLO {self.name!r}: windows must be positive")
        if self.short_window_seconds > self.window_seconds:
            raise ObservabilityError(
                f"SLO {self.name!r}: short window exceeds the long window"
            )
        if not 0.0 < self.burn_threshold <= 1.0:
            raise ObservabilityError(
                f"SLO {self.name!r}: burn threshold must be in (0, 1]"
            )

    def bucket_is_bad(self, value: float) -> bool:
        return value > self.threshold if self.op == "le" else value < self.threshold

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "metric": self.metric,
            "threshold": self.threshold,
            "op": self.op,
            "aggregate": self.aggregate,
            "window_seconds": self.window_seconds,
            "short_window_seconds": self.short_window_seconds,
            "burn_threshold": self.burn_threshold,
            "description": self.description,
        }


@dataclass(frozen=True)
class SLOViolation:
    """One burn episode: when the objective started and stopped burning."""

    slo: str
    fired_at: float  # sim time: end of the bucket that tipped both windows
    resolved_at: float | None  # None = still burning at the end of the series
    peak_burn: float  # worst long-window burn rate while firing
    bad_buckets: int  # bad buckets inside the episode

    def to_dict(self) -> dict[str, object]:
        return {
            "slo": self.slo,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "peak_burn": self.peak_burn,
            "bad_buckets": self.bad_buckets,
        }


@dataclass
class SLOResult:
    """Evaluation of one spec over one series."""

    spec: SLOSpec
    buckets_evaluated: int = 0
    bad_buckets: int = 0
    violations: list[SLOViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def compliance(self) -> float:
        """Fraction of evaluated buckets that met the objective."""
        if self.buckets_evaluated == 0:
            return 1.0
        return 1.0 - self.bad_buckets / self.buckets_evaluated

    def to_dict(self) -> dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "buckets_evaluated": self.buckets_evaluated,
            "bad_buckets": self.bad_buckets,
            "compliance": self.compliance,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


def evaluate(spec: SLOSpec, registry: SeriesRegistry) -> SLOResult | None:
    """Evaluate one spec; ``None`` when its metric has no recorded series.

    The two burn windows slide over *observed* buckets (buckets with no
    recordings carry no evidence either way); window membership is decided
    by bucket-index distance, so a sparse series still burns over the same
    sim-time horizon as a dense one.
    """
    series = registry.get(spec.metric)
    if series is None or len(series) == 0:
        return None
    points = series.points(spec.aggregate)
    long_n = max(1, int(round(spec.window_seconds / series.bucket_seconds)))
    short_n = max(1, int(round(spec.short_window_seconds / series.bucket_seconds)))

    result = SLOResult(spec=spec, buckets_evaluated=len(points))
    flags = [(index, spec.bucket_is_bad(value)) for index, value in points]
    result.bad_buckets = sum(1 for _, bad in flags if bad)

    firing = False
    fired_at = 0.0
    peak = 0.0
    episode_bad = 0
    # Trailing windows over observed buckets, advanced with two pointers so
    # evaluation stays O(n) however long the run was.
    long_start = short_start = 0
    long_bad = short_bad = 0
    for i, (index, bad) in enumerate(flags):
        long_bad += bad
        short_bad += bad
        while flags[long_start][0] <= index - long_n:
            long_bad -= flags[long_start][1]
            long_start += 1
        while flags[short_start][0] <= index - short_n:
            short_bad -= flags[short_start][1]
            short_start += 1
        burn_long = long_bad / (i - long_start + 1)
        burn_short = short_bad / (i - short_start + 1)
        burning = burn_long >= spec.burn_threshold and burn_short >= spec.burn_threshold
        if burning and not firing:
            firing = True
            fired_at = series.bucket_end(index)
            peak = burn_long
            episode_bad = 0
        if firing:
            peak = max(peak, burn_long)
            episode_bad += int(bad)
            # Resolve on short-window recovery: the long window may stay
            # saturated for a while after the condition actually cleared.
            if burn_short < spec.burn_threshold:
                result.violations.append(
                    SLOViolation(
                        spec.name, fired_at, series.bucket_end(index), peak, episode_bad
                    )
                )
                firing = False
    if firing:
        result.violations.append(
            SLOViolation(spec.name, fired_at, None, peak, episode_bad)
        )
    return result


@dataclass
class SLOReport:
    """All evaluated specs for one run, with a byte-stable export."""

    results: list[SLOResult] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # specs with no series

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def violations(self) -> list[SLOViolation]:
        out: list[SLOViolation] = []
        for result in self.results:
            out.extend(result.violations)
        return out

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "results": [r.to_dict() for r in sorted(self.results, key=lambda r: r.spec.name)],
            "skipped": sorted(self.skipped),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"


def evaluate_all(specs: list[SLOSpec], registry: SeriesRegistry) -> SLOReport:
    report = SLOReport()
    for spec in specs:
        result = evaluate(spec, registry)
        if result is None:
            report.skipped.append(spec.name)
        else:
            report.results.append(result)
    return report


#: Default spend budget for the inferred per-warehouse spend-rate SLO,
#: in credits per hour (§6's value-based pricing watches exactly this).
DEFAULT_SPEND_BUDGET_PER_HOUR = 100.0

_MONITOR_RE = re.compile(r"^repro\.monitor\.([a-z0-9_]+)\.([a-z0-9_]+)$")
_BILLING_RE = re.compile(r"^repro\.billing\.([a-z0-9_]+)\.credits$")


def default_slos(
    registry: SeriesRegistry,
    spend_budget_per_hour: float = DEFAULT_SPEND_BUDGET_PER_HOUR,
) -> list[SLOSpec]:
    """Infer a standard SLO set from the series a run actually recorded.

    Mirrors the paper's guardrails: per-warehouse p99-latency-ratio and
    spill-fraction objectives (§4.4's backoff criteria) plus a spend-rate
    budget per warehouse (§6).  Returned name-sorted so reports are stable.
    """
    specs: list[SLOSpec] = []
    for name in registry.names():
        monitor = _MONITOR_RE.match(name)
        if monitor:
            warehouse, signal = monitor.groups()
            if signal == "latency_ratio":
                specs.append(
                    SLOSpec(
                        name=f"latency-ratio.{warehouse}",
                        metric=name,
                        threshold=1.5,
                        op="le",
                        aggregate="max",
                        description="recent p99 stays within 1.5x of baseline over 1h",
                    )
                )
            elif signal == "spill_fraction":
                specs.append(
                    SLOSpec(
                        name=f"spill-fraction.{warehouse}",
                        metric=name,
                        threshold=0.05,
                        op="le",
                        aggregate="max",
                        description="spilled-query share stays under the backoff bar",
                    )
                )
        billing = _BILLING_RE.match(name)
        if billing:
            specs.append(
                SLOSpec(
                    name=f"spend-rate.{billing.group(1)}",
                    metric=name,
                    threshold=spend_budget_per_hour / HOUR,
                    op="le",
                    aggregate="rate",
                    description=(
                        f"billed credits stay under {spend_budget_per_hour:g}/h"
                    ),
                )
            )
    return sorted(specs, key=lambda s: s.name)
