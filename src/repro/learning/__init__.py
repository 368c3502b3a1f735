"""The data-learning stack (§6): featurization, numpy DQN, telemetry-
reconstructed training environments and baseline policies."""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.learning.actions": (
            "CLUSTER_DELTAS",
            "KEEP_SUSPEND",
            "RESIZE_DELTAS",
            "SUSPEND_CHOICES",
            "Action",
            "ActionSpace",
        ),
        "repro.learning.agent": ("DQNAgent", "DQNConfig"),
        "repro.learning.baselines": (
            "GreedyDownsizerPolicy",
            "RuleOfThumbPolicy",
            "StaticPolicy",
        ),
        "repro.learning.buffer": ("ReplayBuffer", "Transition"),
        "repro.learning.env": ("EnvStep", "WarehouseEnv", "reconstruct_workload"),
        "repro.learning.features": (
            "FEATURE_DIM",
            "FeatureExtractor",
            "WorkloadBaseline",
            "interval_windows",
        ),
        "repro.learning.network": ("MLP",),
        "repro.learning.reward": ("RewardConfig", "interval_reward"),
        "repro.learning.trainer": ("EpisodeStats", "OfflineTrainer", "TrainingReport"),
    },
)
