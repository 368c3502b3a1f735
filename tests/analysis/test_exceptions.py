"""R017 exception contracts: the vendor surface raises typed errors only."""

from repro.lint.exceptions import check_exception_contracts
from repro.lint.project import Project

ERRORS = (
    "class PkgError(Exception):\n"
    "    pass\n"
    "\n"
    "class BadInputError(PkgError):\n"
    "    pass\n"
)


def findings_for(sources):
    return check_exception_contracts(Project.from_sources(sources))


class TestVendorSurface:
    def test_bare_exception_escaping_the_vendor_surface(self):
        findings = findings_for(
            {
                "pkg.common.errors": ERRORS,
                "pkg.core.engine": (
                    "from pkg.common.errors import BadInputError\n"
                    "\n"
                    "def run(x):\n"
                    "    if x < 0:\n"
                    '        raise Exception("negative")\n'
                    '    raise BadInputError("bad")\n'
                ),
            }
        )
        (finding,) = findings
        assert finding.rule_id == "R017"
        assert (finding.file, finding.line) == ("pkg/core/engine.py", 5)
        assert "untyped Exception" in finding.message
        assert "(core)" in finding.message
        assert "pkg.common.errors" in finding.message

    def test_builtin_valueerror_is_flagged(self):
        findings = findings_for(
            {
                "pkg.common.errors": ERRORS,
                "pkg.warehouse.api": (
                    "def connect(dsn):\n"
                    '    raise ValueError("bad dsn")\n'
                ),
            }
        )
        (finding,) = findings
        assert "untyped ValueError" in finding.message and "(warehouse)" in finding.message

    def test_typed_raise_is_clean(self):
        assert not findings_for(
            {
                "pkg.common.errors": ERRORS,
                "pkg.core.engine": (
                    "from pkg.common.errors import BadInputError\n"
                    "\n"
                    "def run(x):\n"
                    '    raise BadInputError("bad")\n'
                ),
            }
        )

    def test_local_subclass_of_typed_root_is_clean(self):
        # The hierarchy is resolved whole-program: a core-local subclass of
        # PkgError is still typed.
        assert not findings_for(
            {
                "pkg.common.errors": ERRORS,
                "pkg.core.local": (
                    "from pkg.common.errors import PkgError\n"
                    "\n"
                    "class EngineError(PkgError):\n"
                    "    pass\n"
                    "\n"
                    "def go():\n"
                    '    raise EngineError("x")\n'
                ),
            }
        )

    def test_notimplementederror_is_allowed(self):
        assert not findings_for(
            {
                "pkg.common.errors": ERRORS,
                "pkg.warehouse.api": (
                    "class Base:\n"
                    "    def op(self):\n"
                    "        raise NotImplementedError\n"
                    "    def op2(self):\n"
                    '        raise NotImplementedError("subclass me")\n'
                ),
            }
        )

    def test_reraise_of_a_variable_is_out_of_scope(self):
        assert not findings_for(
            {
                "pkg.common.errors": ERRORS,
                "pkg.core.engine": (
                    "def run(exc):\n"
                    "    raise exc\n"
                ),
            }
        )


class TestScoping:
    def test_non_vendor_packages_are_exempt(self):
        assert not findings_for(
            {
                "pkg.common.errors": ERRORS,
                "pkg.tools.script": 'raise ValueError("tools may be loose")\n',
            }
        )

    def test_no_errors_module_means_no_contract(self):
        assert not findings_for(
            {"pkg.core.engine": 'raise ValueError("no contract declared")\n'}
        )
