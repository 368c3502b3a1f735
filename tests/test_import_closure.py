"""A process imports what it runs.

Every package ``__init__`` is a lazy facade (``repro.common.facade``), and
``repro.parallel.pool`` loads ``multiprocessing`` only for workers.  Each
case runs in a fresh interpreter without bytecode caches, the way every
benchmark sample starts:

* (a) ``import repro.experiments.runner`` stays inside its closure;
* (b) every facade resolves, lists and star-exports its names, and
  refuses unknown ones;
* (c) a run imports nothing its set-up did not already import;
* (d) ``run_jobs`` with one worker still equals the serial result.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: ``repro.*`` modules ``import repro.experiments.runner`` loads (measured;
#: 87 before the package facades were made lazy).
MAX_RUNNER_MODULES = 75

#: Modules no ``workers=0`` run touches; the runner's import must not load them.
NOT_IMPORTED = (
    "multiprocessing",
    "concurrent.futures",
    "socket",
    "subprocess",
    "logging",
    "repro.lint",
    "repro.obs.store",
    "repro.obs.slo",
    "repro.obs.watchtower",
    "repro.obs.profile",
    "repro.portal.reports",
    "repro.portal.export",
    "repro.experiments.sweeps",
    "repro.experiments.crash",
    "repro.core.consolidation",
    "repro.learning.baselines",
)


def _packages() -> list[str]:
    root = SRC / "repro"
    subpackages = sorted(p.parent.name for p in root.glob("*/__init__.py"))
    return ["repro"] + [f"repro.{name}" for name in subpackages]


def _exports(package: str) -> dict[str, list[str]]:
    """The facade table in ``package``'s ``__init__.py``, read from source."""
    path = SRC.joinpath(*package.split(".")) / "__init__.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "facade":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} has no facade table")


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestRunnerClosure:
    def test_runner_import_stays_inside_its_closure(self):
        loaded = _fresh(
            """
            import json, sys
            import repro.experiments.runner
            print(json.dumps(sorted(sys.modules)))
            """
        )
        unwanted = [
            name
            for name in loaded
            if any(name == bad or name.startswith(bad + ".") for bad in NOT_IMPORTED)
        ]
        assert unwanted == []
        ours = [name for name in loaded if name == "repro" or name.startswith("repro.")]
        assert len(ours) <= MAX_RUNNER_MODULES, ours


@pytest.mark.parametrize("package", _packages())
def test_facade_resolves_lists_and_star_exports(package):
    exports = _exports(package)
    problems = _fresh(
        f"""
        import importlib, json
        package = importlib.import_module({package!r})
        exports = {exports!r}
        problems = []
        names = [name for module_names in exports.values() for name in module_names]
        if package.__all__ != names:
            problems.append(["__all__", package.__all__])
        listed = dir(package)
        star = {{}}
        exec("from {package} import *", star)
        for module, module_names in exports.items():
            defining = importlib.import_module(module)
            for name in module_names:
                if name not in listed:
                    problems.append(["dir", name])
                if getattr(package, name) is not getattr(defining, name):
                    problems.append(["is", name])
                if star.get(name, star) is not getattr(defining, name):
                    problems.append(["star", name])
        try:
            package.no_such_export
        except AttributeError:
            pass
        else:
            problems.append(["unknown name resolved"])
        print(json.dumps(problems))
        """
    )
    assert problems == []


def test_obs_alerts_is_the_accessor_whichever_import_comes_first():
    # ``alerts`` is both a submodule and trace's accessor.
    same = _fresh(
        """
        import json
        import repro.obs.alerts
        import repro.obs
        from repro.obs import trace
        print(json.dumps(repro.obs.alerts is trace.alerts))
        """
    )
    assert same is True


def test_a_run_imports_nothing_its_setup_did_not():
    added = _fresh(
        """
        import json, sys
        import repro.experiments.runner
        from repro.experiments.runner import run_before_after, run_cost_model_accuracy
        from repro.experiments.scenarios import smoke_scenario

        before_after, accuracy = smoke_scenario(seed=123), smoke_scenario(seed=124)
        loaded = set(sys.modules)
        run_before_after(before_after)
        run_cost_model_accuracy([accuracy], train_days=1.0, workers=0)
        print(json.dumps(sorted(set(sys.modules) - loaded)))
        """
    )
    assert added == []


def test_one_worker_equals_serial():
    equal = _fresh(
        """
        import json
        from repro.experiments.scenarios import ScenarioSpec
        from repro.parallel import WorkerJob, run_jobs

        jobs = [
            WorkerJob(
                protocol="before_after.row",
                spec=ScenarioSpec(factory="smoke", kwargs=(("seed", seed),)),
            )
            for seed in (123, 321)
        ]
        print(json.dumps(run_jobs(jobs, workers=1) == run_jobs(jobs, workers=0)))
        """
    )
    assert equal is True
