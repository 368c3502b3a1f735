"""Inter-arrival gap modelling (§5.2 "Impact on query arrival times").

When the replay changes query latencies, *independent* arrivals keep their
original timestamps (users do not type faster because the warehouse is
bigger), but *chained* arrivals — ETL steps launched when their predecessor
finishes — shift with the predecessor's counterfactual completion time.

The model classifies each query as chained or independent.  Two signals are
combined:

* the telemetry ``chained`` flag (session-correlation metadata a CDW can
  derive without query text);
* a statistical detector: an arrival that lands within a small window after
  the previous query's completion, for a (template → template) pair that
  repeats this pattern, is chained.  The detector exists both as a fallback
  for telemetry without session metadata and for the calibration ablation.

It also records the gap each chained query keeps from its predecessor's
completion so the replay can reproduce it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.durability.codec import require_keys
from repro.warehouse.queries import QueryRecord

#: An arrival within this many seconds of the previous completion is a
#: chaining candidate for the statistical detector.
CHAIN_WINDOW_SECONDS = 30.0
#: A (prev_template, next_template) pair must show the pattern at least this
#: often to be considered a dependency.
MIN_PAIR_SUPPORT = 3


@dataclass
class GapModel:
    """Classifies arrivals and supplies chain lags for the replay."""

    use_flags: bool = True
    _pair_support: dict[tuple[str, str], int] = field(default_factory=dict)
    _pair_lags: dict[tuple[str, str], float] = field(default_factory=dict)
    fitted: bool = False
    #: Bumped by every :meth:`fit`; part of the optimizer's
    #: ``model_version``, so a refit forces a checkpoint compaction.
    fit_generation: int = 0

    def fit(self, records: list[QueryRecord]) -> "GapModel":
        """Learn recurring dependency pairs from completed history."""
        support: dict[tuple[str, str], int] = defaultdict(int)
        lags: dict[tuple[str, str], list[float]] = defaultdict(list)
        ordered = sorted(records, key=lambda r: r.arrival_time)
        for prev, nxt in zip(ordered, ordered[1:]):
            lag = nxt.arrival_time - prev.end_time
            if 0.0 <= lag <= CHAIN_WINDOW_SECONDS:
                pair = (prev.template_hash, nxt.template_hash)
                support[pair] += 1
                lags[pair].append(lag)
        self._pair_support = dict(support)
        self._pair_lags = {
            pair: sum(values) / len(values) for pair, values in lags.items()
        }
        self.fitted = True
        self.fit_generation += 1
        return self

    def is_dependent_pair(self, prev_template: str, next_template: str) -> bool:
        return self._pair_support.get((prev_template, next_template), 0) >= MIN_PAIR_SUPPORT

    def classify_arrays(
        self,
        arrivals: np.ndarray,
        end_times: np.ndarray,
        template_hashes: list[str],
        chained_flags: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Label each record chained/independent with its chain lag.

        Takes parallel arrays (already in arrival order — the caller sorts
        once and extracts all replay columns in the same pass) and returns
        ``(chained, lag)`` arrays, bit-identical to the per-record loop in
        the test oracle (``tests/props/replay_oracle.py``).  Only the
        dictionary lookups for chaining *candidates* stay in Python;
        everything dense is NumPy.
        """
        n = int(arrivals.size)
        chained = np.zeros(n, dtype=bool)
        lags = np.zeros(n, dtype=np.float64)
        if n <= 1:
            return chained, lags
        observed = arrivals[1:] - end_times[:-1]
        in_window = (observed >= 0.0) & (observed <= CHAIN_WINDOW_SECONDS)
        if self.use_flags:
            flag_says = np.asarray(chained_flags[1:], dtype=bool)
        else:
            flag_says = np.zeros(n - 1, dtype=bool)
        if self._pair_support:
            # dict.get driven by map() keeps the per-pair lookup in C.
            support_counts = np.fromiter(
                map(
                    self._pair_support.get,
                    zip(template_hashes, template_hashes[1:]),
                    itertools.repeat(0),
                ),
                dtype=np.int64,
                count=n - 1,
            )
            detector_says = in_window & (support_counts >= MIN_PAIR_SUPPORT)
        else:
            detector_says = np.zeros(n - 1, dtype=bool)
        is_chained = flag_says | detector_says
        lag_tail = np.where(in_window, observed, 0.0)
        for j in np.flatnonzero(is_chained & ~in_window).tolist():
            lag_tail[j] = self._pair_lags.get(
                (template_hashes[j], template_hashes[j + 1]), 5.0
            )
        chained[1:] = is_chained
        lags[1:] = np.where(is_chained, lag_tail, 0.0)
        return chained, lags

    @property
    def n_dependent_pairs(self) -> int:
        return sum(1 for s in self._pair_support.values() if s >= MIN_PAIR_SUPPORT)

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        # Tuple keys flatten to [prev, next, value] triples for JSON.
        return {
            "use_flags": self.use_flags,
            "fitted": self.fitted,
            "fit_generation": self.fit_generation,
            "pair_support": [
                [prev, nxt, count]
                for (prev, nxt), count in sorted(self._pair_support.items())
            ],
            "pair_lags": [
                [prev, nxt, lag] for (prev, nxt), lag in sorted(self._pair_lags.items())
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            ("use_flags", "fitted", "fit_generation", "pair_support", "pair_lags"),
            "GapModel",
        )
        self.use_flags = bool(state["use_flags"])
        self.fitted = bool(state["fitted"])
        self.fit_generation = int(state["fit_generation"])
        self._pair_support = {
            (prev, nxt): int(count) for prev, nxt, count in state["pair_support"]
        }
        self._pair_lags = {(prev, nxt): float(lag) for prev, nxt, lag in state["pair_lags"]}
