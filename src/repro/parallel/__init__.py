"""repro.parallel — deterministic process-parallel experiment execution.

The paper's evaluation sweeps many independent warehouses (the Figure 4/5
fleet, the Figure 7 slider sweep); each is an isolated simulation, so they
parallelize embarrassingly — *if* parallelism cannot change the results.
This package provides that guarantee (docs/PERFORMANCE.md):

* scenarios cross the process boundary as picklable
  :class:`~repro.experiments.scenarios.ScenarioSpec` recipes, never as live
  objects — each worker rebuilds its scenario from the registered factory,
  and ``RngRegistry``'s name-derived streams make the rebuild exact;
* each scenario runs in an isolated observation session (in a worker *or*
  inline) that leaves the job as a chunk stream, and the parent folds the
  streams back **in submission order** through one
  :class:`repro.obs.stream.PayloadChunkMerger` fold;
* the serial (``workers=0``) path runs the very same job body and fold,
  so ``workers=N`` output is byte-identical to ``workers=0`` by
  construction, not by luck;
* the chunks travel in memory by default; with a
  :class:`~repro.parallel.pool.StreamConfig` they are spooled through
  disk instead (:mod:`repro.obs.stream`): worker peak RSS is O(spill
  bound), the parent folds O(chunk) at a time, workers heartbeat their
  progress — and the exported bytes are *still* identical.

This is the only module allowed to touch :mod:`multiprocessing`
(lint rule R011, docs/INVARIANTS.md).
"""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.parallel.pool": (
            "ParallelExecutionError",
            "StreamConfig",
            "WorkerJob",
            "register_protocol",
            "resolve_protocol",
            "run_jobs",
        ),
    },
)
