"""Import graph: cycle detection and the rendered (byte-stable) artifacts."""

from repro.lint.graph import find_cycles, module_graph, to_dot, to_markdown
from repro.lint.project import Project


def fixture_project():
    return Project.from_sources(
        {
            "pkg.a": "def f():\n    import pkg.b\n",  # lazy a -> b
            "pkg.b": "import pkg.c\n",  # solid b -> c
            "pkg.c": "",
        }
    )


class TestFindCycles:
    def test_simple_two_cycle(self):
        graph = {"a": {"b"}, "b": {"a"}, "c": {"a"}}
        assert find_cycles(graph) == [["a", "b"]]

    def test_self_loop_is_a_cycle(self):
        assert find_cycles({"a": {"a"}, "b": set()}) == [["a"]]

    def test_acyclic_graph_is_clean(self):
        assert find_cycles({"a": {"b"}, "b": {"c"}, "c": set()}) == []

    def test_two_disjoint_cycles_sorted(self):
        graph = {"x": {"y"}, "y": {"x"}, "a": {"b"}, "b": {"a"}}
        assert find_cycles(graph) == [["a", "b"], ["x", "y"]]


class TestModuleGraph:
    def test_lazy_edges_excluded(self):
        graph = module_graph(fixture_project(), "pkg")
        assert graph["pkg.a"] == set()
        assert graph["pkg.b"] == {"pkg.c"}


class TestArtifacts:
    def test_dot_renders_lazy_edges_dashed(self):
        dot = to_dot(fixture_project(), "pkg")
        assert '"a" -> "b" [style=dashed, label="lazy"];' in dot
        assert '"b" -> "c";' in dot
        assert dot.startswith('digraph "pkg" {')

    def test_dot_layer_groups(self):
        dot = to_dot(fixture_project(), "pkg", layers=(("c",), ("a", "b")))
        assert '{ rank=same; "c" }  // layer 0' in dot
        assert '{ rank=same; "a"; "b" }  // layer 1' in dot

    def test_markdown_table(self):
        md = to_markdown(fixture_project(), "pkg")
        assert "| `a` | `b (lazy)` |" in md
        assert "| `b` | `c` |" in md

    def test_artifacts_byte_stable(self):
        project = fixture_project()
        assert to_dot(project, "pkg") == to_dot(fixture_project(), "pkg")
        assert to_markdown(project, "pkg") == to_markdown(fixture_project(), "pkg")
