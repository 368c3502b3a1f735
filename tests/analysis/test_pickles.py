"""R016 spawn-safety: registered factories, protocols, and WorkerJob
payloads must be importable-by-name from a fresh interpreter."""

from repro.lint.pickles import check_pickle_safety
from repro.lint.project import Project


def findings_for(sources):
    if isinstance(sources, str):
        sources = {"mod": sources}
    return check_pickle_safety(Project.from_sources(sources))


class TestRegistrants:
    def test_module_level_def_is_clean(self):
        assert not findings_for(
            "from framework.scenarios import scenario_factory\n"
            "\n"
            '@scenario_factory("good")\n'
            "def make(spec):\n"
            "    return spec\n"
        )

    def test_nested_registrant_is_a_closure(self):
        findings = findings_for(
            "from framework.scenarios import scenario_factory\n"
            "\n"
            "def outer():\n"
            '    @scenario_factory("inner")\n'
            "    def make(spec):\n"
            "        return spec\n"
            "    return make\n"
        )
        (finding,) = findings
        assert (finding.rule_id, finding.file, finding.line) == ("R016", "mod.py", 5)
        assert "nested function (closure)" in finding.message

    def test_lambda_default_argument(self):
        findings = findings_for(
            "from framework.scenarios import scenario_factory\n"
            "\n"
            '@scenario_factory("bad")\n'
            "def make(spec, hook=lambda: 1):\n"
            "    return spec\n"
        )
        (finding,) = findings
        assert (finding.rule_id, finding.line) == ("R016", 4)
        assert "lambda default argument" in finding.message

    def test_inline_lambda_registration(self):
        findings = findings_for(
            "from framework.pool import register_protocol\n"
            "\n"
            'handler = register_protocol("bad")(lambda job: job)\n'
        )
        (finding,) = findings
        assert (finding.rule_id, finding.line) == ("R016", 3)
        assert "lambda registered via register_protocol" in finding.message


class TestWorkerJobPayloads:
    def test_lambda_anywhere_in_payload(self):
        findings = findings_for(
            "from framework.pool import WorkerJob\n"
            "\n"
            'job = WorkerJob(job_id=1, payload={"hook": lambda: 1})\n'
        )
        (finding,) = findings
        assert (finding.rule_id, finding.file, finding.line) == ("R016", "mod.py", 3)
        assert "WorkerJob payload" in finding.message

    def test_data_only_payload_is_clean(self):
        assert not findings_for(
            "from framework.pool import WorkerJob\n"
            "\n"
            'job = WorkerJob(job_id=1, payload={"seed": 7})\n'
        )


class TestRegistryPokes:
    def test_imported_registry_subscript_write(self):
        findings = findings_for(
            "import framework.scenarios\n"
            "\n"
            "def sneak(fn):\n"
            '    framework.scenarios.SCENARIO_FACTORIES["x"] = fn\n'
        )
        (finding,) = findings
        assert (finding.rule_id, finding.line) == ("R016", 4)
        assert "direct write into registry SCENARIO_FACTORIES" in finding.message

    def test_local_registry_write_is_the_registrar(self):
        # The defining module's own subscript write IS the sanctioned
        # registrar implementation.
        assert not findings_for(
            "SCENARIO_FACTORIES = {}\n"
            "\n"
            "def scenario_factory(name):\n"
            "    def wrap(fn):\n"
            "        SCENARIO_FACTORIES[name] = fn\n"
            "        return fn\n"
            "    return wrap\n"
        )
