"""The paper's contribution: traffic-light scheduling identification
from low-frequency taxi traces.

Stages (Fig. 4): interpolation → DFT cycle length (§V, with
intersection-based enhancement §V.B) → border-interval red duration
(§VI.A) → superposition (§VI.B) → sliding-window change point (§VI.C)
→ continuous monitoring for scheduling changes (§VII).
"""

from .changepoint import circular_moving_average, find_signal_change, stop_end_density
from .cycle import (
    CycleConfig,
    FoldScanner,
    fold_zscore,
    stop_end_comb_zscore,
    spectrum,
)
from .coordination import (
    LinkProgression,
    corridor_report,
    progression_bandwidth,
    relative_offset,
)
from .enhancement import choose_primary, enhance_samples, mirror_speeds
from .highfreq import HighFreqConfig, identify_light_highfreq, start_events
from .interpolation import bucket_mean, regularize
from .monitor import (
    HistoricalProfile,
    MonitorSeries,
    PlanChange,
    detect_plan_changes,
    monitor_cycle,
    repair_outliers,
)
from .batch import (
    circular_moving_average_batch,
    cycle_profile_batch,
    identify_batch,
    identify_cycles,
    spectra_batch,
)
from .pipeline import BACKENDS, PipelineConfig, identify_light, identify_many
from .shard import balanced_shards, identify_shard
from .redlight import (
    RedConfig,
    estimate_red_duration,
    estimate_red_from_stops,
    refine_red_from_change,
)
from .signal_types import (
    ChangePointEstimate,
    CycleEstimate,
    InsufficientDataError,
    RedEstimate,
    ScheduleEstimate,
)
from .stops import StopEvents, extract_stops
from .superposition import cycle_profile, fold_samples, fold_times

__all__ = [
    "circular_moving_average",
    "find_signal_change",
    "stop_end_density",
    "CycleConfig",
    "fold_zscore",
    "FoldScanner",
    "stop_end_comb_zscore",
    "spectrum",
    "LinkProgression",
    "corridor_report",
    "progression_bandwidth",
    "relative_offset",
    "choose_primary",
    "enhance_samples",
    "mirror_speeds",
    "bucket_mean",
    "regularize",
    "HighFreqConfig",
    "identify_light_highfreq",
    "start_events",
    "HistoricalProfile",
    "MonitorSeries",
    "PlanChange",
    "detect_plan_changes",
    "monitor_cycle",
    "repair_outliers",
    "BACKENDS",
    "PipelineConfig",
    "identify_light",
    "identify_many",
    "identify_shard",
    "balanced_shards",
    "identify_batch",
    "identify_cycles",
    "spectra_batch",
    "cycle_profile_batch",
    "circular_moving_average_batch",
    "RedConfig",
    "estimate_red_duration",
    "estimate_red_from_stops",
    "refine_red_from_change",
    "ChangePointEstimate",
    "CycleEstimate",
    "InsufficientDataError",
    "RedEstimate",
    "ScheduleEstimate",
    "StopEvents",
    "extract_stops",
    "cycle_profile",
    "fold_samples",
    "fold_times",
]
