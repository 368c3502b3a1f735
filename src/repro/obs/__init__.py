"""repro.obs — deterministic observability for the simulation stack.

The paper's KWO service lives on continuous telemetry and real-time
monitoring (§4.4); this package gives the *reproduction itself* the same
property: structured sim-time traces (spans + events), an in-process
metrics registry, and run manifests, all with byte-stable exports so two
runs of the same ``(scenario, seed)`` produce identical observability
output (docs/OBSERVABILITY.md).

Disabled by default; the whole module-level API is a no-op until a session
is opened::

    from repro import obs

    with obs.observed(manifest=scenario.manifest()) as rec:
        run_before_after(scenario)
    rec.sink.dump("trace.jsonl")
    print(rec.metrics.to_json())
"""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.obs.alerts": ("NULL_ALERTS", "AlertManager"),
        "repro.obs.manifest": ("RunManifest", "config_hash"),
        "repro.obs.metrics": (
            "DEFAULT_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "ObservabilityError",
        ),
        "repro.obs.profile": (
            "Profile",
            "SpanStats",
            "critical_path",
            "diff_profiles",
            "folded_stacks",
            "profile_records",
            "to_folded",
        ),
        "repro.obs.provenance": (
            "PROVENANCE_SCHEMA_VERSION",
            "UNATTRIBUTED",
            "AttributionEntry",
            "AttributionLedger",
            "AttributionShare",
            "AttributionSummary",
            "CandidateEvaluation",
            "DecisionContext",
            "DecisionOutcome",
            "DecisionRecord",
            "ProvenanceLog",
            "calibration_facts",
            "split_exact",
        ),
        "repro.obs.series": ("DEFAULT_BUCKET_SECONDS", "MetricSeries", "SeriesRegistry"),
        "repro.obs.store": ("STORE_SCHEMA_VERSION", "FleetStore"),
        "repro.obs.stream": (
            "CHUNK_SCHEMA_VERSION",
            "HEARTBEAT_SCHEMA_VERSION",
            "NULL_PROBE",
            "RESOURCES_SCHEMA_VERSION",
            "PayloadChunkMerger",
            "ResourceProbe",
            "SpillingTraceSink",
            "campaign_progress",
            "campaign_summary",
            "payload_chunks",
            "peak_rss_kb",
            "read_heartbeats",
            "write_heartbeat",
        ),
        "repro.obs.watchtower": (
            "WATCHTOWER_SCHEMA_VERSION",
            "WatchtowerThresholds",
            "fleet_baseline",
            "run_watchtower",
        ),
        "repro.obs.slo": (
            "SLOReport",
            "SLOResult",
            "SLOSpec",
            "SLOViolation",
            "default_slos",
            "evaluate_all",
        ),
        "repro.obs.trace": (
            "NULL_SPAN",
            "TRACE_SCHEMA_VERSION",
            "Recorder",
            "Span",
            "TraceSink",
            "alerts",
            "counter",
            "emit",
            "enabled",
            "gauge",
            "histogram",
            "observed",
            "recorder",
            "resume",
            "span",
            "start",
            "stop",
        ),
    },
)

# ``alerts`` names both a submodule and trace's accessor.  Importing the
# accessor here, after trace has imported the submodule, keeps it bound:
# a later first import of ``repro.obs.alerts`` would otherwise rebind the
# package attribute to the module.
from repro.obs.trace import alerts  # noqa: E402
