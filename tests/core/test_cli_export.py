"""Tests for the CLI and the portal JSON export."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.common.simtime import DAY, Window
from repro.portal.dashboards import ActionsDashboard, SavingsDashboard
from repro.portal.export import (
    actions_to_dict,
    kpi_bucket_to_dict,
    optimizer_status_to_dict,
    overhead_to_dict,
    savings_to_dict,
    to_json,
)
from repro.portal.kpis import KpiBucket


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4a", "fig4b", "fig5", "fig6", "fig7", "onboarding", "fleet"):
            assert name in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_fig5_runs(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Warehouse3" in out
        assert "rel.err" in out

    def test_every_leaf_command_has_a_run_handler(self):
        def leaves(parser, path=()):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from leaves(sub, (*path, name))
                    return
            yield path, parser

        found = list(leaves(build_parser()))
        assert len(found) >= 30
        for path, parser in found:
            assert callable(parser.get_default("run")), " ".join(path)

    def test_experiment_commands_take_only_their_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--workers", "4"])
        args = build_parser().parse_args(["fleet", "--workers", "2"])
        assert args.workers == 2

    def test_seed_flag_parsed(self):
        args = build_parser().parse_args(["fig5", "--seed", "123"])
        assert args.seed == 123


class TestExport:
    def test_savings_roundtrips_json(self):
        dashboard = SavingsDashboard(
            warehouse="WH",
            days=[0, 1],
            daily_credits=[10.0, 6.0],
            daily_p99=[5.0, 4.0],
            keebo_active=[False, True],
        )
        payload = savings_to_dict(dashboard)
        parsed = json.loads(to_json(payload))
        assert parsed["warehouse"] == "WH"
        assert parsed["savings_fraction"] == pytest.approx(0.4)
        assert parsed["keebo_active"] == [False, True]

    def test_actions_export_only_changes(self):
        from repro.core.actuator import AppliedAction
        from repro.warehouse.config import WarehouseConfig
        from repro.warehouse.types import WarehouseSize

        base = WarehouseConfig()
        changed = AppliedAction(1.0, "WH", base, base.with_changes(size=WarehouseSize.L), "up", True)
        noop = AppliedAction(2.0, "WH", base, base, "noop", True)
        payload = actions_to_dict(ActionsDashboard("WH", [changed, noop]))
        assert payload["n_changes"] == 1
        assert len(payload["actions"]) == 1
        json.loads(to_json(payload))

    def test_kpi_bucket_export(self):
        bucket = KpiBucket(
            window=Window(0, DAY),
            credits=12.0,
            n_queries=4,
            avg_latency=2.0,
            p99_latency=5.0,
            avg_queue_seconds=0.1,
            p99_queue_seconds=0.5,
        )
        payload = kpi_bucket_to_dict(bucket)
        assert payload["cost_per_query"] == pytest.approx(3.0)
        json.loads(to_json(payload))

    def test_optimizer_status_export(self):
        from repro.core.optimizer import OptimizerConfig, WarehouseOptimizer
        from tests.conftest import drive, make_account, make_requests, make_template
        from repro.common.simtime import HOUR

        account, wh = make_account(seed=61)
        drive(
            account,
            wh,
            make_requests(make_template("s", base_work_seconds=5.0), [i * 400.0 for i in range(60)]),
            8 * HOUR,
        )
        optimizer = WarehouseOptimizer(
            account,
            wh,
            config=OptimizerConfig(
                training_window=8 * HOUR,
                onboarding_episodes=1,
                episode_length=4 * HOUR,
                retrain_episodes=0,
                confidence_tau=0.0,
            ),
        )
        optimizer.onboard()
        payload = optimizer_status_to_dict(optimizer)
        assert payload["onboarded"] is True
        assert payload["slider"] == "Balanced"
        json.loads(to_json(payload))
