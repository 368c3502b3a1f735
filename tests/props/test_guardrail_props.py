"""The guardrail's lazy latency reference against the eager one it replaced.

``Guardrail`` no longer replays the customer's original config when a tick
starts: a verdict reads the original size stage's mean latency from the
snapshot, and only when it runs.  The oracle below is the guardrail as it
was, replaying the original config up front and reading that replay's
``avg_latency``.  Over random windows (empty ones included), current,
original and target configs, slider positions and live pressure, both must
return the same ``(passes, estimate)``.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR, Window
from repro.core.sliders import SliderParams, SliderPosition, slider_params
from repro.core.smart_model import Guardrail
from repro.costmodel.model import WarehouseCostModel
from repro.costmodel.replay import ReplayHistory, ReplayResult
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize

from tests.conftest import drive, make_account, make_requests, make_template

#: Queries run in [0, BUSY_HOURS); windows reach past it, so some are empty.
BUSY_HOURS = 8.0


@dataclass(frozen=True)
class EagerGuardrail:
    """The guardrail with the original config replayed up front."""

    snapshot: ReplayHistory
    current: WarehouseConfig
    base: ReplayResult
    original: ReplayResult

    @classmethod
    def build(
        cls, snapshot: ReplayHistory, current: WarehouseConfig, original: WarehouseConfig
    ) -> "EagerGuardrail":
        base = snapshot.cost(current)
        original_replay = base if original == current else snapshot.cost(original)
        return cls(snapshot, current, base, original_replay)

    def verdict(
        self, target: WarehouseConfig, params: SliderParams, pressure: bool
    ) -> tuple[bool, ReplayResult]:
        candidate = self.snapshot.cost(target)
        base, original = self.base, self.original
        reference_latency = max(original.avg_latency, 1e-9)
        latency_factor = (
            candidate.avg_latency / reference_latency if original.avg_latency > 0 else 1.0
        )
        if latency_factor > params.max_latency_factor + 1e-9:
            return False, candidate
        credits_delta = candidate.credits - base.credits
        slows_vs_base = candidate.avg_latency > base.avg_latency + 1e-9
        if slows_vs_base and credits_delta >= 0:
            return False, candidate
        speed_buyer = params.cost_increase_tolerance >= 0.5
        upsize = target.size > self.current.size
        if upsize and not pressure and not speed_buyer and credits_delta >= 0:
            return False, candidate
        allowed_increase = params.cost_increase_tolerance * max(base.credits, 1e-6)
        if credits_delta > allowed_increase + 1e-9:
            return False, candidate
        return True, candidate


def _cost_model() -> WarehouseCostModel:
    """Eight busy hours at two sizes (so the latency model sees both),
    then idle time."""
    account, wh = make_account(
        seed=11, size=WarehouseSize.M, auto_suspend_seconds=600.0, max_clusters=2
    )
    heavy = make_template("heavy", base_work_seconds=40.0, n_partitions=3)
    light = make_template("light", base_work_seconds=4.0, n_partitions=1)
    half = BUSY_HOURS / 2 * HOUR
    drive(account, wh, make_requests(heavy, [30.0 + i * 700.0 for i in range(20)]), half)
    client = CloudWarehouseClient(account, actor="keebo")
    client.alter_warehouse(wh, size=WarehouseSize.S)
    drive(
        account,
        wh,
        make_requests(light, [half + 45.0 + i * 240.0 for i in range(55)])
        + make_requests(heavy, [half + 90.0 + i * 900.0 for i in range(15)]),
        (BUSY_HOURS + 4) * HOUR,
    )
    return WarehouseCostModel(client, wh).fit(Window(0.0, BUSY_HOURS * HOUR))


COST_MODEL = _cost_model()


SIZES = [WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M, WarehouseSize.L]


@st.composite
def configs(draw):
    max_clusters = draw(st.integers(1, 3))
    return WarehouseConfig(
        size=draw(st.sampled_from(SIZES)),
        auto_suspend_seconds=draw(st.sampled_from([0.0, 60.0, 300.0, 600, 1800.0])),
        min_clusters=draw(st.integers(1, max_clusters)),
        max_clusters=max_clusters,
    )


windows = st.tuples(
    st.floats(min_value=0.0, max_value=(BUSY_HOURS + 3) * HOUR),
    st.sampled_from([0.0, 60.0, 0.5 * HOUR, 2 * HOUR]),
).map(lambda w: Window(w[0], w[0] + w[1]))


class TestLazyReferenceMatchesEagerGuardrail:
    @given(
        windows,
        configs(),
        st.one_of(st.none(), configs()),
        st.lists(st.one_of(st.none(), configs()), min_size=1, max_size=4),
        st.sampled_from(list(SliderPosition)),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_verdicts_equal(self, window, current, original, targets, position, pressure):
        # ``None`` stands for "the current config", so the original == current
        # and target == current cases are drawn often.
        original = current if original is None else original
        params = slider_params(position)
        eager = EagerGuardrail.build(COST_MODEL.snapshot(window), current, original)
        snapshot = COST_MODEL.snapshot(window)
        lazy = Guardrail(snapshot, current, snapshot.cost(current), original)
        assert lazy.base == eager.base
        assert repr(lazy.reference_latency()) == repr(eager.original.avg_latency)
        for target in targets:
            target = current if target is None else target
            passes, estimate = lazy.verdict(target, params, pressure)
            want_passes, want_estimate = eager.verdict(target, params, pressure)
            assert passes == want_passes
            assert repr(estimate) == repr(want_estimate)
