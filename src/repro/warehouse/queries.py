"""Query descriptions: templates, submitted requests and telemetry records.

Security model (paper §2 C6): the optimizer never sees query text.  Each
query carries a SHA-1 ``text_hash`` (full text) and ``template_hash`` (text
stripped of constants); only the hashes are exposed through telemetry, which
is exactly the trick footnote 4 of the paper describes for finding identical
and similar queries.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, fields

from repro.common.errors import ConfigurationError
from repro.warehouse.types import WarehouseSize

_query_ids = itertools.count(1)


def hash_text(text: str) -> str:
    """Stable hex digest standing in for a securely hashed query text."""
    return hashlib.sha1(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class QueryTemplate:
    """Ground-truth execution profile of one recurring query shape.

    This is *simulator-internal* truth: the optimizer and cost model never
    read these fields; they only observe latencies through telemetry.

    Parameters
    ----------
    name:
        Human-readable template name (hashed before leaving the simulator).
    base_work_seconds:
        Warm-cache execution time on an otherwise idle XS cluster.
    scale_exponent:
        How latency responds to compute: ``latency = base / speedup**gamma``.
        1.0 = perfectly parallelizable, 0.0 = does not benefit from larger
        warehouses.  The paper's §5.2 notes latency "may grow super-linearly
        for some queries, but linearly or sub-linearly for others" when
        downsizing; gamma captures that heterogeneity.
    bytes_scanned:
        Total bytes the query reads.
    partitions:
        Identifiers of the data partitions touched (the cacheable unit).
    cold_multiplier:
        Latency multiplier when *all* reads miss the local cache; the
        effective multiplier interpolates with the actual miss ratio.
        BI-style templates are cache sensitive (high multiplier).
    min_memory_size:
        Smallest warehouse size whose memory holds this query's working set
        (hash tables, sort buffers).  On smaller sizes the query *spills*:
        latency multiplies by ``spill_multiplier`` per missing size step.
        This is §5.2's "latency may grow super-linearly for some queries"
        when downsizing — the phenomenon that makes blind downsizing unsafe.
        Defaults to XS (never spills).
    spill_multiplier:
        Extra slowdown per size step below ``min_memory_size``.

    Attributes
    ----------
    template_hash:
        Hash of the template name, the only template identity telemetry
        exposes; computed once, at construction.
    footprint:
        ``partitions`` without repeats, in first-seen order: the set of
        partitions one execution reads, which is what the cache is handed.
        Computed once, at construction.
    """

    name: str
    base_work_seconds: float
    scale_exponent: float = 0.8
    bytes_scanned: float = 1 * (2**30)
    partitions: tuple[str, ...] = ()
    cold_multiplier: float = 2.0
    min_memory_size: WarehouseSize = WarehouseSize.XS
    spill_multiplier: float = 2.5

    def __post_init__(self):
        if self.base_work_seconds <= 0:
            raise ConfigurationError("base_work_seconds must be positive")
        if not 0.0 <= self.scale_exponent <= 1.5:
            raise ConfigurationError("scale_exponent out of plausible range [0, 1.5]")
        if self.cold_multiplier < 1.0:
            raise ConfigurationError("cold_multiplier must be >= 1.0")
        if self.bytes_scanned < 0:
            raise ConfigurationError("bytes_scanned must be non-negative")
        if self.spill_multiplier < 1.0:
            raise ConfigurationError("spill_multiplier must be >= 1.0")
        self._memoize()

    def _memoize(self) -> None:
        """Set up the per-template constants the simulator reads on every
        query start.  They live outside the fields, so equality, hash, repr
        and pickle see only the fields."""
        object.__setattr__(self, "template_hash", hash_text(f"template:{self.name}"))
        object.__setattr__(self, "footprint", tuple(dict.fromkeys(self.partitions)))
        # Filled per size on first use: a template meets only a few sizes.
        object.__setattr__(self, "_execution", [None] * len(WarehouseSize))
        # Filled per instance key on first use.
        object.__setattr__(self, "_text_hashes", {})

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memoize()

    def execution(self, size: WarehouseSize) -> tuple[float, int]:
        """``(warm_latency(size), spill_steps(size))``, computed once per size."""
        constants = self._execution[size]
        if constants is None:
            constants = self._execution[size] = (self.warm_latency(size), self.spill_steps(size))
        return constants

    def text_hash(self, instance_key: str) -> str:
        """The full-text hash of the instance ``instance_key``, computed once."""
        digest = self._text_hashes.get(instance_key)
        if digest is None:
            digest = self._text_hashes[instance_key] = hash_text(
                f"query:{self.name}:{instance_key}"
            )
        return digest

    def spill_steps(self, size: WarehouseSize) -> int:
        """Size steps below the working-set threshold (0 = no spill)."""
        return max(0, self.min_memory_size.value - size.value)

    def spill_factor(self, size: WarehouseSize) -> float:
        """Latency multiplier from spilling at ``size``."""
        return self.spill_multiplier ** self.spill_steps(size)

    def warm_latency(self, size: WarehouseSize) -> float:
        """Warm-cache, zero-contention latency on ``size`` (incl. spilling)."""
        compute = self.base_work_seconds / (size.speedup**self.scale_exponent)
        return compute * self.spill_factor(size)


@dataclass(frozen=True)
class QueryRequest:
    """A single query submission produced by a workload generator."""

    template: QueryTemplate
    arrival_time: float
    # Constants vary per instance; the full-text hash therefore differs per
    # instance group while the template hash stays stable.
    instance_key: str = ""
    # Chained requests model ETL dependencies: the generator emitted this
    # request a fixed lag after the previous step's expected completion.
    chained: bool = False

    @property
    def text_hash(self) -> str:
        return self.template.text_hash(self.instance_key)

    @property
    def template_hash(self) -> str:
        return self.template.template_hash


@dataclass(slots=True)
class QueryRecord:
    """One row of QUERY_HISTORY telemetry (metadata only, no text/data).

    Field names mirror Snowflake's ACCOUNT_USAGE.QUERY_HISTORY columns the
    paper's §6.1 lists as training inputs: arrival/queue/latency timings,
    bytes scanned, warehouse size and cluster number at execution.
    """

    query_id: int
    warehouse: str
    text_hash: str
    template_hash: str
    arrival_time: float
    start_time: float = 0.0
    end_time: float = 0.0
    queued_seconds: float = 0.0
    execution_seconds: float = 0.0
    bytes_scanned: float = 0.0
    #: Bytes spilled to local/remote storage (memory pressure signal; >0
    #: means the warehouse was too small for this query's working set).
    bytes_spilled: float = 0.0
    warehouse_size: WarehouseSize = WarehouseSize.XS
    cluster_number: int = 0
    cache_hit_ratio: float = 0.0
    is_overhead: bool = False
    chained: bool = False
    completed: bool = False

    @property
    def total_seconds(self) -> float:
        """Queue time plus execution time (what the end user experiences)."""
        return self.queued_seconds + self.execution_seconds


def next_query_id() -> int:
    """Monotonically increasing query id shared across all simulations."""
    return next(_query_ids)
