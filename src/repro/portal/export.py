"""JSON export of portal dashboards.

The paper's product exposes "an API service for programmatic access" beside
the web portal (§4.1).  These functions serialize dashboard data to plain
JSON-compatible dictionaries, the shape an HTTP layer (or a notebook, or a
plotting script) would consume.
"""

from __future__ import annotations

import json

from repro.common.stable_json import dumps_json
from repro.core.optimizer import WarehouseOptimizer
from repro.portal.dashboards import (
    ActionsDashboard,
    OverheadDashboard,
    SavingsDashboard,
)
from repro.portal.kpis import KpiBucket


def savings_to_dict(dashboard: SavingsDashboard) -> dict:
    return {
        "warehouse": dashboard.warehouse,
        "days": list(dashboard.days),
        "daily_credits": [round(c, 6) for c in dashboard.daily_credits],
        "daily_p99_seconds": [round(p, 6) for p in dashboard.daily_p99],
        "keebo_active": list(dashboard.keebo_active),
        "pre_keebo_daily_mean": round(dashboard.pre_keebo_daily_mean, 6),
        "with_keebo_daily_mean": round(dashboard.with_keebo_daily_mean, 6),
        "savings_fraction": round(dashboard.savings_fraction, 6),
    }


def overhead_to_dict(dashboard: OverheadDashboard) -> dict:
    return {
        "warehouse": dashboard.warehouse,
        "hours": list(dashboard.hours),
        "actual_credits": [round(c, 6) for c in dashboard.actual_credits],
        "overhead_credits": [round(c, 6) for c in dashboard.overhead_credits],
        "estimated_savings": [round(c, 6) for c in dashboard.estimated_savings],
        "overhead_fraction": round(dashboard.total_overhead_fraction, 6),
    }


def actions_to_dict(dashboard: ActionsDashboard) -> dict:
    return {
        "warehouse": dashboard.warehouse,
        "n_changes": dashboard.n_changes,
        "actions": [
            {
                "time": action.time,
                "from": action.from_config.describe(),
                "to": action.to_config.describe(),
                "reason": action.reason,
                "succeeded": action.succeeded,
            }
            for action in dashboard.actions
            if action.changed
        ],
    }


def kpi_bucket_to_dict(bucket: KpiBucket) -> dict:
    return {
        "start": bucket.window.start,
        "end": bucket.window.end,
        "credits": round(bucket.credits, 6),
        "n_queries": bucket.n_queries,
        "avg_latency": round(bucket.avg_latency, 6),
        "p99_latency": round(bucket.p99_latency, 6),
        "avg_queue_seconds": round(bucket.avg_queue_seconds, 6),
        "cost_per_query": round(bucket.cost_per_query, 6),
    }


def optimizer_status_to_dict(optimizer: WarehouseOptimizer) -> dict:
    """The status blob an admin console would poll."""
    return {
        "warehouse": optimizer.warehouse,
        "onboarded": optimizer.onboarded,
        "paused": optimizer.paused,
        "slider": optimizer.params.position.label,
        "decision_counts": optimizer.decision_counts(),
        "guardrail_vetoes": (
            optimizer.smart_model.guardrail_vetoes if optimizer.smart_model else 0
        ),
        "actuator_errors": optimizer.actuator.errors if optimizer.actuator else 0,
        "training_runs": len(optimizer.training_reports),
    }


def to_json(payload: dict, indent: int = 2) -> str:
    """Serialize an exported dict, validating it is JSON-clean.

    Delegates to the repo-wide byte-stable serializer
    (:func:`repro.common.stable_json.dumps_json`) at the default indent, so
    portal exports and lint reports share one formatting contract; a non-default ``indent`` keeps the local path.
    """
    if indent == 2:
        return dumps_json(payload)
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"
