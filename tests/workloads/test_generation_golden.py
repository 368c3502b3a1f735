"""Golden digest of every scenario's generated workload.

One sha256 over the requests each registered scenario factory generates at
its default seed and native horizon (template name, ``repr`` of the arrival
time, instance key, chained flag) and over every workload part's final
``bit_generator.state``.  Any change to a draw, its order, or the float
arithmetic of an intensity moves it; a change meant to alter generation
re-blesses it and says why.
"""

import hashlib

from repro.common.simtime import Window
from repro.core.sliders import SliderPosition
from repro.experiments.scenarios import SCENARIO_FACTORIES
from repro.workloads.base import CompositeWorkload

GENERATION_DIGEST = "3c8804bf0b8da16f101a4a769ec5df44d0f84860572ea8bd3d42cd905bc814d4"


def _scenarios():
    for name in sorted(SCENARIO_FACTORIES):
        # fig7 takes its slider as a required argument; generation ignores it.
        kwargs = {"slider": SliderPosition.BALANCED} if name == "fig7" else {}
        built = SCENARIO_FACTORIES[name](**kwargs)
        yield from built if isinstance(built, list) else [built]


def generation_digest() -> str:
    digest = hashlib.sha256()
    for scenario in _scenarios():
        requests = scenario.workload.generate(Window(0.0, scenario.horizon))
        digest.update(f"{scenario.name}:{len(requests)}\n".encode())
        for r in requests:
            assert type(r.arrival_time) is float
            digest.update(
                f"{r.template.name}|{r.arrival_time!r}|{r.instance_key}|{r.chained}\n".encode()
            )
        workload = scenario.workload
        parts = workload.parts if isinstance(workload, CompositeWorkload) else [workload]
        for part in parts:
            digest.update(repr(part.rng.bit_generator.state).encode())
    return digest.hexdigest()


def test_generation_digest_pinned():
    assert generation_digest() == GENERATION_DIGEST
