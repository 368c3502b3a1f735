"""Determinism dataflow: R013 RNG provenance, R014 wall-clock taint,
R015 unordered iteration.  Every positive fixture mirrors a pattern the
per-file rules (R001/R002/R008) structurally cannot see."""

from repro.lint.dataflow import check_dataflow
from repro.lint.project import Project


def findings_for(source, name="mod"):
    return check_dataflow(Project.from_sources({name: source}))


def only(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestRngProvenance:
    def test_aliased_constructor_and_downstream_draw(self):
        findings = findings_for(
            "import numpy as np\n"
            "\n"
            "def sample():\n"
            "    mk = np.random.default_rng\n"
            "    rng = mk(7)\n"
            "    return rng.normal()\n"
        )
        assert [(f.rule_id, f.line) for f in findings] == [("R013", 5), ("R013", 6)]
        assert "alias 'mk'" in findings[0].message
        assert "aliased at line 4" in findings[0].message
        assert ".normal()" in findings[1].message

    def test_draw_on_directly_constructed_generator(self):
        findings = findings_for(
            "import numpy as np\n"
            "\n"
            "def sample():\n"
            "    rng = np.random.default_rng(7)\n"
            "    return rng.normal()\n"
        )
        (finding,) = findings
        assert (finding.rule_id, finding.file, finding.line) == ("R013", "mod.py", 5)
        assert "constructed at line 4" in finding.message

    def test_rng_registry_module_is_exempt(self):
        findings = findings_for(
            "import numpy as np\n"
            "\n"
            "def fallback_rng(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.normal()\n",
            name="repro.common.rng",
        )
        assert not findings

    def test_draw_on_untracked_receiver_is_clean(self):
        # Generators threaded in as parameters have legitimate provenance.
        assert not findings_for("def sample(rng):\n    return rng.normal()\n")


class TestWallClockTaint:
    def test_wall_value_returned_from_payload_function(self):
        findings = findings_for(
            "import time\n"
            "\n"
            "def snapshot():\n"
            "    started = time.time()\n"
            '    return {"started": started}\n'
        )
        (finding,) = only(findings, "R014")
        assert (finding.file, finding.line) == ("mod.py", 5)
        assert "read at line 4" in finding.message
        assert "payload function snapshot()" in finding.message

    def test_wall_value_reaching_json_dump(self):
        findings = findings_for(
            "import json\n"
            "import time\n"
            "\n"
            "def dump(out):\n"
            "    now = time.time()\n"
            '    json.dump({"t": now}, out)\n'
        )
        (finding,) = only(findings, "R014")
        assert finding.line == 6
        assert "json.dump" in finding.message

    def test_laundering_through_arithmetic_and_fstring(self):
        findings = findings_for(
            "import time\n"
            "\n"
            "def header(handle):\n"
            "    t = time.time() * 1000.0\n"
            '    handle.write(f"started {t}")\n'
        )
        (finding,) = only(findings, "R014")
        assert finding.line == 5 and ".write()" in finding.message

    def test_untainted_value_is_clean(self):
        assert not findings_for(
            "import json\n"
            "\n"
            "def dump(out, now):\n"
            '    json.dump({"t": now}, out)\n'
        )

    def test_wall_read_without_escape_is_clean(self):
        # R001 already bans the read inside src; the dataflow pass only
        # fires when the value escapes.
        assert not findings_for(
            "import time\n"
            "\n"
            "def check(log):\n"
            "    t = time.time()\n"
            "    local = t + 1.0\n"
            "    del local\n"
        )


class TestUnorderedIteration:
    def test_materializing_listdir(self):
        findings = findings_for(
            "import os\n"
            "\n"
            "def names(base):\n"
            "    return list(os.listdir(base))\n"
        )
        (finding,) = only(findings, "R015")
        assert (finding.file, finding.line) == ("mod.py", 4)
        assert "via list" in finding.message

    def test_sorted_listdir_is_clean(self):
        assert not findings_for(
            "import os\n"
            "\n"
            "def names(base):\n"
            "    return sorted(os.listdir(base))\n"
        )

    def test_loop_appending_glob_results(self):
        findings = findings_for(
            "def collect(base):\n"
            "    out = []\n"
            '    for path in base.glob("*.json"):\n'
            "        out.append(path)\n"
            "    return out\n"
        )
        (finding,) = only(findings, "R015")
        assert finding.line == 3
        assert "order-dependent effects" in finding.message

    def test_comprehension_over_iterdir(self):
        findings = findings_for(
            "def stems(base):\n"
            "    return [p.stem for p in base.iterdir()]\n"
        )
        (finding,) = only(findings, "R015")
        assert finding.line == 2 and "comprehension" in finding.message

    def test_sorted_comprehension_is_clean(self):
        assert not findings_for(
            "def stems(base):\n"
            "    return sorted(p.stem for p in base.iterdir())\n"
        )

    def test_set_valued_attribute_iterated_in_order(self):
        findings = findings_for(
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self.names = set()\n"
            "\n"
            "    def render(self):\n"
            "        out = []\n"
            "        for name in self.names:\n"
            "            out.append(name)\n"
            "        return out\n"
        )
        (finding,) = only(findings, "R015")
        assert finding.line == 7
        assert "self.names" in finding.message
        assert "assigned at line 3" in finding.message

    def test_sorted_attribute_iteration_is_clean(self):
        assert not findings_for(
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self.names = set()\n"
            "\n"
            "    def render(self):\n"
            "        out = []\n"
            "        for name in sorted(self.names):\n"
            "            out.append(name)\n"
            "        return out\n"
        )

    def test_order_insensitive_loop_body_is_clean(self):
        # Counting does not depend on enumeration order.
        assert not findings_for(
            "import os\n"
            "\n"
            "def count(base):\n"
            "    n = 0\n"
            "    for _name in os.listdir(base):\n"
            "        n = n + 1\n"
            "    return n\n"
        )
