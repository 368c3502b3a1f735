"""R012 layering contract: upward imports, cycles, unknown subpackages."""

from repro.lint.contract import REPRO_CONTRACT, LayerContract, check_layering
from repro.lint.project import Project

CONTRACT = LayerContract(package="pkg", layers=(("a",), ("b",)))


def findings_for(sources, contract=CONTRACT):
    return check_layering(Project.from_sources(sources), contract)


class TestUpwardImports:
    def test_upward_import_is_flagged_at_the_import_line(self):
        findings = findings_for(
            {"pkg.a": "from pkg.b import helper\n", "pkg.b": "helper = 1\n"}
        )
        (finding,) = findings
        assert finding.rule_id == "R012"
        assert (finding.file, finding.line) == ("pkg/a.py", 1)
        assert "layering violation" in finding.message
        assert "'a' (layer 0) may not import 'b' (layer 1)" in finding.message

    def test_downward_import_is_clean(self):
        assert not findings_for(
            {"pkg.a": "VALUE = 1\n", "pkg.b": "from pkg.a import VALUE\n"}
        )

    def test_same_layer_import_is_clean(self):
        contract = LayerContract(package="pkg", layers=(("a", "b"),))
        assert not findings_for(
            {"pkg.a": "import pkg.b\n", "pkg.b": ""}, contract=contract
        )

    def test_lazy_import_is_exempt(self):
        assert not findings_for(
            {
                "pkg.a": "def f():\n    from pkg.b import helper\n    return helper\n",
                "pkg.b": "helper = 1\n",
            }
        )

    def test_type_checking_import_is_exempt(self):
        assert not findings_for(
            {
                "pkg.a": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from pkg.b import helper\n"
                ),
                "pkg.b": "helper = 1\n",
            }
        )

    def test_facade_table_entry_is_an_import(self):
        # A lazy facade's table (repro.common.facade) re-exports from its
        # modules; an upward entry is flagged like the eager import it replaced.
        (finding,) = findings_for(
            {
                "pkg.a.__init__": (
                    "from pkg.common import facade\n"
                    "__getattr__, __dir__, __all__ = facade(\n"
                    "    __name__, {\"pkg.b.mod\": (\"helper\",)}\n"
                    ")\n"
                ),
                "pkg.b.mod": "helper = 1\n",
            }
        )
        assert (finding.file, finding.line) == ("pkg/a/__init__.py", 3)
        assert "'a' (layer 0) may not import 'b' (layer 1)" in finding.message

    def test_root_module_may_import_anything(self):
        # pkg/__init__ is the re-export surface; it sits above every layer.
        assert not findings_for(
            {"pkg": "from pkg.b import helper\n", "pkg.b": "helper = 1\n"}
        )


class TestCycles:
    def test_cycle_is_flagged_on_smallest_member(self):
        findings = findings_for(
            {"pkg.a": "VALUE = 1\nimport pkg.b\n", "pkg.b": "import pkg.a\n"},
            contract=LayerContract(package="pkg", layers=(("a", "b"),)),
        )
        (finding,) = findings
        assert finding.rule_id == "R012"
        # Anchored at pkg.a (lexicographically smallest) on its in-cycle edge.
        assert (finding.file, finding.line) == ("pkg/a.py", 2)
        assert "import cycle: pkg.a -> pkg.b -> pkg.a" in finding.message

    def test_cycle_and_upward_import_both_reported(self):
        findings = findings_for(
            {"pkg.a": "from pkg.b import helper\n", "pkg.b": "import pkg.a\n"}
        )
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("layering violation" in m for m in messages)
        assert any("import cycle" in m for m in messages)

    def test_lazy_edge_does_not_close_a_cycle(self):
        assert not findings_for(
            {
                "pkg.a": "def f():\n    import pkg.b\n",
                "pkg.b": "import pkg.a\n",
            },
            contract=LayerContract(package="pkg", layers=(("a", "b"),)),
        )


class TestUnknownSubpackage:
    def test_unassigned_subpackage_flagged_once(self):
        findings = findings_for(
            {"pkg.mystery.one": "X = 1\n", "pkg.mystery.two": "Y = 2\n"}
        )
        (finding,) = findings
        assert finding.rule_id == "R012" and finding.line == 1
        assert "'mystery' is not assigned to a layer" in finding.message


class TestShippedContract:
    def test_every_repro_layer_name_is_unique(self):
        seen = []
        for layer in REPRO_CONTRACT.layers:
            seen.extend(layer)
        assert len(seen) == len(set(seen))

    def test_common_is_the_bottom_and_cli_the_top(self):
        assert REPRO_CONTRACT.rank("common") == 0
        assert REPRO_CONTRACT.rank("cli") == len(REPRO_CONTRACT.layers) - 1
        assert REPRO_CONTRACT.rank("learning") < REPRO_CONTRACT.rank("core")
