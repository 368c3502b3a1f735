"""Experiment scenarios and protocols reproducing the paper's §7."""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.experiments.runner": (
            "AccuracyRow",
            "BeforeAfterResult",
            "FleetResult",
            "OnboardingCurve",
            "OverheadResult",
            "SliderSweepRow",
            "run_before_after",
            "run_chaos",
            "run_chaos_fleet",
            "run_cost_model_accuracy",
            "run_fleet",
            "run_onboarding_curve",
            "run_overhead",
            "run_slider_sweep",
        ),
        "repro.experiments.sweeps": (
            "SweepPoint",
            "cheapest_within_latency",
            "pareto_frontier",
            "sweep_configs",
        ),
        "repro.experiments.scenarios": (
            "Scenario",
            "fig4a_scenario",
            "fig4b_scenario",
            "fig5_scenarios",
            "fig6_scenario",
            "fig7_scenario",
            "fleet_scenarios",
            "onboarding_scenario",
        ),
    },
)
