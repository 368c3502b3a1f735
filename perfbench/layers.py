"""Wall-time attribution across the repo's layers, from outside ``src/``.

A :class:`LayerProfiler` owns a stack of open layers.  Timing shims wrap
each layer's public functions (the :data:`TARGETS` table); a shim charges
the host time since the last stack change to the layer on top, pushes its
own layer, calls through, and charges again on the way out.  Every
nanosecond between :meth:`LayerProfiler.start` and :meth:`LayerProfiler.stop`
is therefore charged to exactly one stack path, so the layers' self times
plus the time charged to the empty stack (``other``) add up to the traced
wall time exactly (integer nanoseconds).  A call into the layer already on
top of the stack is counted but not pushed, so recursion within one layer
folds into it.

Shims are installed where each name is looked up: on the class that
defines the method (and on every subclass that overrides it), and, for a
module-level function, in every loaded ``repro`` module that bound it by
name.  :meth:`LayerProfiler.installed` restores the originals on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One timed function: ``module:Class.attr`` or ``module:function``."""

    layer: str
    path: str
    #: Count name (under the layer) incremented on every call.
    count: str | None = None
    #: ``(name, fn(result, args) -> number)`` summed over calls.
    measure: tuple[str, Callable] | None = None


def _len_result(result, args) -> int:
    return len(result)


def _len_episodes(result, args) -> int:
    return len(result.episodes)


def _len_records_arg(result, args) -> int:
    return len(args[1])


def _int_result(result, args) -> int:
    return int(result)


TARGETS = (
    Target("workloads", "repro.workloads.base:Workload.generate"),
    # The hottest tiny calls (``Simulation.schedule``,
    # ``TelemetryStore.record_query``, obs counters and gauges) are not
    # shimmed: a shim would cost as much as the call.  Their counts are read
    # from the program after the run (``harness.count_program``).
    Target("warehouse.engine", "repro.warehouse.engine:Simulation.run_until"),
    Target("warehouse", "repro.warehouse.warehouse:VirtualWarehouse.submit", count="queries"),
    Target("warehouse", "repro.warehouse.warehouse:VirtualWarehouse.alter"),
    Target("warehouse", "repro.warehouse.warehouse:VirtualWarehouse.suspend"),
    Target("warehouse", "repro.warehouse.warehouse:VirtualWarehouse.resume"),
    Target("warehouse.billing", "repro.warehouse.billing:BillingMeter.credits_in_window"),
    Target("warehouse.billing", "repro.warehouse.billing:BillingMeter.hourly_rollup"),
    Target(
        "warehouse.telemetry",
        "repro.warehouse.telemetry:TelemetryStore.query_history",
        measure=("rows_read", _len_result),
    ),
    # The decision loop's own bookkeeping (provenance, alerts, retrain and
    # report scheduling); without it a tick's glue would be charged to the
    # engine dispatch that fired it.
    Target("core.optimizer", "repro.core.optimizer:WarehouseOptimizer.onboard"),
    Target("core.optimizer", "repro.core.optimizer:WarehouseOptimizer._tick"),
    Target("core.monitoring", "repro.core.monitoring:Monitor.snapshot"),
    Target("learning.features", "repro.learning.features:FeatureExtractor.extract"),
    Target("core.smart_model", "repro.core.smart_model:SmartModel.next_action", count="decisions"),
    Target("learning.actions", "repro.learning.actions:ActionSpace.apply", count="apply_calls"),
    Target("learning.actions", "repro.learning.env:WarehouseEnv.current_mask", count="mask_calls"),
    Target("costmodel", "repro.costmodel.model:WarehouseCostModel.fit"),
    Target("costmodel", "repro.costmodel.model:WarehouseCostModel.estimate_cost"),
    Target(
        "costmodel",
        "repro.costmodel.replay:QueryReplay.replay",
        count="replays",
        measure=("rows_replayed", _len_records_arg),
    ),
    Target(
        "learning.train",
        "repro.learning.trainer:OfflineTrainer.run",
        measure=("episodes", _len_episodes),
    ),
    Target("learning.train", "repro.learning.env:WarehouseEnv.step", count="env_steps"),
    Target("learning.train", "repro.learning.agent:DQNAgent.observe"),
    Target("learning.train", "repro.learning.agent:DQNAgent.learn_step", count="grad_steps"),
    Target("learning.train", "repro.learning.env:reconstruct_workload", count="reconstructs"),
    Target("core.actuator", "repro.core.actuator:Actuator.apply"),
    # Retries re-enter the actuator from the event loop, not through apply().
    Target("core.actuator", "repro.core.actuator:_RetryActuation.__call__"),
    Target(
        "core.ledger",
        "repro.core.ledger:LiveLedger.ingest",
        measure=("rows_streamed", _int_result),
    ),
    Target("core.ledger", "repro.core.ledger:LiveLedger.reconcile"),
    Target("obs", "repro.obs.trace:Recorder.span"),
    Target("obs", "repro.obs.trace:Recorder.emit"),
    Target("obs", "repro.obs.trace:Span.__exit__"),
    Target("durability", "repro.core.optimizer:KeeboService.checkpoint"),
    Target(
        "durability",
        "repro.durability.checkpoint:CheckpointStore.write_snapshot",
        count="snapshots",
    ),
    Target("durability", "repro.durability.checkpoint:CheckpointStore.append", count="deltas"),
)

#: Layer vocabulary, in table order.
LAYERS = tuple(dict.fromkeys(target.layer for target in TARGETS))


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


def _resolve(target: Target) -> tuple[object, list[tuple[object, str]]]:
    """The original function and every ``(owner, attr)`` slot that binds it."""
    module_name, _, qualname = target.path.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        original = getattr(module, qualname)
        slots = [
            (mod, qualname)
            for name, mod in sorted(sys.modules.items())
            if name.split(".")[0] == "repro" and getattr(mod, qualname, None) is original
        ]
        return original, slots
    class_name, attr = qualname.split(".")
    cls = getattr(module, class_name)
    slots = [(klass, attr) for klass in _subclasses(cls) if attr in vars(klass)]
    return None, slots


class LayerProfiler:
    """Exclusive host-time accounting over a stack of layers."""

    def __init__(
        self, targets=TARGETS, clock: Callable[[], int] = time.perf_counter_ns
    ):
        self.targets = tuple(targets)
        self.layers = tuple(dict.fromkeys(target.layer for target in self.targets))
        self._clock = clock
        self._stack: list[str] = []
        self._last = 0
        self._start = 0
        self.wall_ns = 0
        #: Layers still on the stack when :meth:`stop` ran: empty when every
        #: shimmed call inside the traced run returned.
        self.open_at_stop: list[str] = []
        #: Stack path (outermost first) -> self nanoseconds.
        self.paths: dict[tuple[str, ...], int] = {}
        self.calls: dict[str, int] = {layer: 0 for layer in self.layers}
        #: ``"<layer>.<count>"`` -> summed value.
        self.counts: dict[str, float] = {}
        for target in self.targets:
            if target.count:
                self.counts[f"{target.layer}.{target.count}"] = 0
            if target.measure:
                self.counts[f"{target.layer}.{target.measure[0]}"] = 0

    # ------------------------------------------------------------ accounting
    def _charge(self, now: int) -> None:
        key = tuple(self._stack)
        self.paths[key] = self.paths.get(key, 0) + (now - self._last)
        self._last = now

    def start(self) -> None:
        self._start = self._last = self._clock()

    def stop(self) -> None:
        now = self._clock()
        self._charge(now)
        self.wall_ns = now - self._start
        self.open_at_stop = list(self._stack)

    def call(self, target: Target, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` charged to ``target.layer``; count it on return."""
        layer = target.layer
        self.calls[layer] += 1
        stack = self._stack
        if stack and stack[-1] == layer:
            result = fn(*args, **kwargs)
        else:
            self._charge(self._clock())
            stack.append(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._charge(self._clock())
                stack.pop()
        if target.count:
            self.counts[f"{layer}.{target.count}"] += 1
        if target.measure:
            name, measure = target.measure
            self.counts[f"{layer}.{name}"] += measure(result, args)
        return result

    # --------------------------------------------------------------- results
    def self_ns(self) -> dict[str, int]:
        """Exclusive nanoseconds per layer, plus ``other`` (empty stack)."""
        totals = {layer: 0 for layer in self.layers}
        totals["other"] = 0
        for path, ns in self.paths.items():
            totals[path[-1] if path else "other"] += ns
        return totals

    def folded(self, root: str) -> str:
        """Collapsed stacks (``root;a;b <µs>``), name-sorted, like
        ``obs profile --folded`` but weighted by host microseconds."""
        lines = sorted(
            (";".join((root,) + path), ns // 1000) for path, ns in self.paths.items()
        )
        return "".join(f"{stack} {weight}\n" for stack, weight in lines)

    # ----------------------------------------------------------------- shims
    def _shim(self, target: Target, fn: Callable) -> Callable:
        call = self.call

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return call(target, fn, args, kwargs)

        return shim

    @contextmanager
    def installed(self) -> Iterator["LayerProfiler"]:
        """Install a shim on every target; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for target in self.targets:
                original, slots = _resolve(target)
                if not slots:
                    raise LookupError(f"no slot binds {target.path}")
                for owner, attr in slots:
                    fn = vars(owner)[attr] if isinstance(owner, type) else original
                    if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
                        raise TypeError(f"{target.path} is not a plain function")
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._shim(target, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
