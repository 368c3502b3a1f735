"""``repro.cli faults``: the catalogue and the unknown-scenario exit code."""

from repro.cli import main


class TestFaultsCli:
    def test_list_names_the_chaos_scenarios(self, capsys):
        assert main(["faults", "list"]) == 0
        assert "chaos_smoke" in capsys.readouterr().out

    def test_describe_unknown_scenario_exits_two(self, capsys):
        assert main(["faults", "describe", "nope"]) == 2
        assert capsys.readouterr().err == "error: unknown chaos scenario 'nope'\n"
