"""Project model: module naming, import classification, resolution."""

from repro.lint.project import Project, module_name_for


def edges_of(project, name):
    return project.modules[name].edges


class TestModuleNaming:
    def test_climbs_init_parents(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "sub").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "mod.py").write_text("x = 1\n")
        assert module_name_for(tmp_path / "pkg" / "sub" / "mod.py") == "pkg.sub.mod"
        assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == "pkg.sub"

    def test_bare_script_is_its_stem(self, tmp_path):
        (tmp_path / "tool.py").write_text("x = 1\n")
        assert module_name_for(tmp_path / "tool.py") == "tool"


class TestImportClassification:
    def test_top_level_import_is_solid(self):
        project = Project.from_sources({"pkg.a": "import pkg.b\n", "pkg.b": ""})
        (edge,) = edges_of(project, "pkg.a")
        assert (edge.target, edge.lazy, edge.typing_only) == ("pkg.b", False, False)
        assert (edge.line, edge.col) == (1, 0)

    def test_function_scoped_import_is_lazy(self):
        project = Project.from_sources(
            {
                "pkg.a": "def f():\n    from pkg.b import helper\n    return helper\n",
                "pkg.b": "def helper():\n    return 1\n",
            }
        )
        (edge,) = edges_of(project, "pkg.a")
        assert edge.lazy and not edge.typing_only
        assert edge.target == "pkg.b"

    def test_type_checking_import_is_typing_only(self):
        project = Project.from_sources(
            {
                "pkg.a": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from pkg.b import helper\n"
                ),
                "pkg.b": "helper = 1\n",
            }
        )
        edges = [e for e in edges_of(project, "pkg.a") if e.target == "pkg.b"]
        assert edges and edges[0].typing_only

    def test_class_body_import_stays_solid(self):
        project = Project.from_sources(
            {"pkg.a": "class C:\n    import pkg.b\n", "pkg.b": ""}
        )
        (edge,) = edges_of(project, "pkg.a")
        assert not edge.lazy

    def test_from_import_attribute_trims_to_known_module(self):
        # ``from pkg.b import helper``: helper is an attribute, not a module;
        # the edge must resolve to pkg.b.
        project = Project.from_sources(
            {"pkg.a": "from pkg.b import helper\n", "pkg.b": "helper = 1\n"}
        )
        (edge,) = edges_of(project, "pkg.a")
        assert edge.target == "pkg.b"

    def test_relative_import_from_module(self):
        # pkg/sub/mod.py doing ``from ..other import x`` -> pkg.other.
        project = Project.from_sources(
            {"pkg.sub.mod": "from ..other import x\n", "pkg.other": "x = 1\n"}
        )
        (edge,) = edges_of(project, "pkg.sub.mod")
        assert edge.target == "pkg.other"

    def test_relative_import_from_package_init(self, tmp_path):
        # A package *is* its own containing package: ``from .core import x``
        # in pkg/__init__.py resolves to pkg.core, not core.
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("from .core import thing\n")
        (tmp_path / "pkg" / "core.py").write_text("thing = 1\n")
        project = Project.load([tmp_path / "pkg"])
        (edge,) = edges_of(project, "pkg")
        assert edge.target == "pkg.core"


class TestErrors:
    def test_syntax_error_is_recorded_not_raised(self):
        project = Project.from_sources({"bad": "def f(:\n", "good": "x = 1\n"})
        assert len(project.errors) == 1 and "bad.py" in project.errors[0]
        assert "good" in project.modules and "bad" not in project.modules

    def test_nonexistent_path_is_recorded(self, tmp_path):
        project = Project.load([tmp_path / "nope"])
        assert project.errors and "no such file" in project.errors[0]


class TestClassHierarchy:
    def test_bases_resolve_through_imports(self):
        project = Project.from_sources(
            {
                "pkg.errors": "class Root(Exception):\n    pass\n",
                "pkg.mod": (
                    "from pkg.errors import Root\n"
                    "class Leaf(Root):\n"
                    "    pass\n"
                ),
            }
        )
        leaf = project.classes["pkg.mod.Leaf"]
        assert leaf.bases == ("pkg.errors.Root",)
        assert project.resolve_class("pkg.mod", "Leaf").qualname == "pkg.mod.Leaf"
        assert project.resolve_class("pkg.mod", "pkg.errors.Root") is not None
