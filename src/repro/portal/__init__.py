"""Programmatic equivalent of Keebo's web portal (§4.1): KPI computation,
dashboard data assembly, and text rendering."""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.portal.dashboards": (
            "ActionsDashboard",
            "OverheadDashboard",
            "SavingsDashboard",
            "actions_dashboard",
            "overhead_dashboard",
            "savings_dashboard",
        ),
        "repro.portal.export": (
            "actions_to_dict",
            "kpi_bucket_to_dict",
            "optimizer_status_to_dict",
            "overhead_to_dict",
            "savings_to_dict",
            "to_json",
        ),
        "repro.portal.kpis": (
            "KpiBucket",
            "daily_credits",
            "daily_p99_latency",
            "kpi_series",
            "total_spend",
        ),
        "repro.portal.reports": (
            "render_actions",
            "render_overhead",
            "render_savings",
        ),
    },
)
