"""Harness tests: shim self-time accounting, shim restoration, fingerprints.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

US = 1000  # the fake clock ticks in nanoseconds


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


class Outer:
    def __init__(self, clock: FakeClock, inner: "Inner"):
        self.clock = clock
        self.inner = inner

    def run(self) -> str:
        self.clock.advance(3 * US)
        self.inner.work(2)
        self.clock.advance(2 * US)
        return "done"


class Inner:
    def __init__(self, clock: FakeClock):
        self.clock = clock

    def work(self, depth: int) -> int:
        self.clock.advance(4 * US)
        if depth > 1:
            self.work(depth - 1)  # recursion folds into the same frame
        return depth

    def fail(self) -> None:
        self.clock.advance(7 * US)
        raise ValueError("boom")


SYNTHETIC = (
    layers.Target("outer", f"{__name__}:Outer.run"),
    layers.Target("inner", f"{__name__}:Inner.work", count="works",
                  measure=("depth", lambda result, args: result)),
    layers.Target("inner", f"{__name__}:Inner.fail"),
)


def test_self_time_is_exclusive_and_adds_up_to_the_wall():
    clock = FakeClock()
    inner = Inner(clock)
    profiler = layers.LayerProfiler(SYNTHETIC, clock=clock)
    with profiler.installed():
        profiler.start()
        clock.advance(1 * US)
        assert Outer(clock, inner).run() == "done"
        clock.advance(5 * US)
        profiler.stop()

    assert profiler.self_ns() == {"outer": 5 * US, "inner": 8 * US, "other": 6 * US}
    assert profiler.wall_ns == 19 * US == sum(profiler.paths.values())
    assert profiler.paths == {
        (): 6 * US,
        ("outer",): 5 * US,
        ("outer", "inner"): 8 * US,
    }
    assert profiler.calls == {"outer": 1, "inner": 2}
    assert profiler.counts == {"inner.works": 2, "inner.depth": 3}
    assert profiler.folded("root") == "root 6\nroot;outer 5\nroot;outer;inner 8\n"


def test_an_exception_unwinds_the_stack_and_keeps_the_books():
    clock = FakeClock()
    inner = Inner(clock)
    profiler = layers.LayerProfiler(SYNTHETIC, clock=clock)
    with profiler.installed():
        profiler.start()
        with pytest.raises(ValueError):
            inner.fail()
        clock.advance(2 * US)
        profiler.stop()
    assert profiler.self_ns() == {"outer": 0, "inner": 7 * US, "other": 2 * US}
    assert sum(profiler.paths.values()) == profiler.wall_ns == 9 * US
    assert profiler.open_at_stop == []


def test_stopping_inside_a_layer_leaves_it_open():
    profiler = layers.LayerProfiler(SYNTHETIC, clock=FakeClock())
    profiler.start()
    profiler.call(SYNTHETIC[0], profiler.stop, (), {})
    assert profiler.open_at_stop == ["outer"]


def test_host_speed_correction_takes_out_probes_and_slowness():
    host = speed.HostSpeed()
    ref = speed.REFERENCE_NS
    # Probes at 0, 100, 200 ns: the host ran at half speed from 100 ns on.
    host.probes = [(0, ref), (100, 2 * ref), (200, 2 * ref)]
    assert host.factor(100, 300) == 2.0
    assert host.probe_ns(100, 300) == 4 * ref
    assert host.corrected_s(100, 300, 4 * ref + 2_000_000_000) == 1.0
    # An interval without probes falls back to every probe.
    assert host.factor(1000, 2000) == pytest.approx(5 / 3)


def test_host_speed_probes_while_armed():
    host = speed.HostSpeed()
    host.arm()
    try:
        deadline = time.perf_counter() + 4 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            speed.kernel()
    finally:
        host.disarm()
    assert len(host.probes) >= 2
    assert all(ns > 0 for _, ns in host.probes)


def _lookup(slots) -> dict:
    return {
        (owner, attr): vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr in slots
    }


def test_every_target_resolves_and_is_restored_after_the_run():
    import repro.experiments.runner  # noqa: F401  (loads every layer module)
    import repro.workloads.mixed  # noqa: F401  (loads the Workload subclasses)

    slots = [slot for target in layers.TARGETS for slot in layers._resolve(target)[1]]
    before = _lookup(slots)
    assert len(before) >= len(layers.TARGETS)
    profiler = layers.LayerProfiler()
    with pytest.raises(RuntimeError):
        with profiler.installed():
            during = _lookup(slots)
            assert all(during[key].__wrapped__ is before[key] for key in before)
            raise RuntimeError("the traced run failed")
    after = _lookup(slots)
    assert all(after[key] is before[key] for key in before)


def test_name_bound_functions_are_shimmed_where_they_are_looked_up():
    import repro.core.optimizer as optimizer
    import repro.learning.env as env

    original = env.reconstruct_workload
    with layers.LayerProfiler().installed():
        assert optimizer.reconstruct_workload.__wrapped__ is original
        assert env.reconstruct_workload.__wrapped__ is original
    assert optimizer.reconstruct_workload is original


def _child(*flags: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
            "--workload", "chaos_durable", "--seed", "132", *flags,
        ],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_fingerprint_is_stable_across_fresh_runs_traced_or_not():
    plain, traced = _child(), _child("--trace")
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["fingerprint"] == traced["fingerprint"]
    assert plain["fidelity"] == traced["fidelity"]
    assert plain["fingerprint"]["warehouse.engine.scheduled"] >= plain["fingerprint"][
        "warehouse.engine.events"
    ] > 0
    assert plain["fingerprint"]["warehouse.telemetry.rows_written"] > 0
    assert plain["wall_s"] > 0 and plain["speed_factor"] > 0
    assert traced["layers"]["self_s"]["durability"] > 0
    assert traced["fingerprint"]["obs.records"] > 0
    assert traced["extras"]["core.actuator.retries"] > 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_catalogue()
