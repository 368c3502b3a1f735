"""Synthetic workload generators (the paper's production traces substitute).

Archetypes: recurring ETL pipelines, cache-sensitive BI dashboards, and
unpredictable ad-hoc analytics; plus mixed presets matching the regimes of
the paper's evaluation (§7).
"""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.workloads.adhoc": ("AdhocWorkload",),
        "repro.workloads.base": (
            "CompositeWorkload",
            "Workload",
            "business_hours_profile",
            "make_partition_universe",
            "month_end_multiplier",
            "poisson_arrivals",
            "sample_table_subset",
            "template_bytes",
        ),
        "repro.workloads.bi": ("BiWorkload", "DashboardSpec"),
        "repro.workloads.etl": ("EtlWorkload", "PipelineSpec"),
        "repro.workloads.reporting": ("ReportingWorkload",),
        "repro.workloads.mixed": (
            "make_bi_workload",
            "make_predictable_workload",
            "make_static_etl_workload",
            "make_unpredictable_workload",
        ),
    },
)
