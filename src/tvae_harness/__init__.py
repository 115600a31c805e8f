"""Pseudo-online evaluation and reward harness for verification-driven GUI agents."""

__version__ = "0.1.0"

from .trajectory_store import (  # noqa: F401
    ActionKind,
    ActionRecord,
    StepRecord,
    TrajectoryRecord,
    load_dataset,
    normalize_action,
    save_dataset,
)
from .tvae_codec import (  # noqa: F401
    HistoryEntry,
    ThinkSegment,
    ThinkTag,
    TvaeOutput,
    Verification,
    emit_tvae,
    parse_tvae,
)
from .failure_forge import (  # noqa: F401
    FailureCase,
    FailureMode,
    SyntheticSample,
    build_robustness_bench,
    build_sft_dataset,
    corrupt_action,
)
from .sim_engine import (  # noqa: F401
    Outcome,
    SimConfig,
    SimTrace,
    run_episode,
    run_episodes,
    run_failure_case,
)
from .agent_bus import (  # noqa: F401
    Observation,
    RemoteAgent,
    ScriptedAgent,
    Variant,
    VariantName,
    scripted_turn,
)
from .reward_engine import (  # noqa: F401
    RewardBreakdown,
    RewardConfig,
    composite_reward,
    match_action,
    verification_reward,
)
from .grpo_core import (  # noqa: F401
    GroupBatch,
    GroupOutput,
    GrpoConfig,
    clipped_surrogate,
    group_advantages,
    kl_penalty,
    token_ratios,
)
from .metric_suite import (  # noqa: F401
    MetricsReport,
    StepPrediction,
    emit_report,
    robustness_metrics,
    step_metrics,
    task_metrics,
)
