"""Experiment harness: the Figure 6 trace-driven simulation runner,
detection/false-alarm metrics, and regenerators for every table and
figure in the paper's evaluation (Section 4)."""

from .campaign import CampaignResult, NetworkOutcome, simulate_campaign
from .profiling import ProfileTask, profile_network, run_profile_campaign
from .chaos import ChaosArm, ChaosReport, render_chaos_report, run_chaos_campaign
from .sensitivity import SensitivityCell, recommend_parameters, sweep_parameters
from .streaming import (
    counts_from_pcaps,
    detect_from_pcaps,
)
from .export import (
    attack_report_to_dict,
    detection_result_to_dict,
    figure_to_dict,
    save_json,
    table_rows_to_dict,
)
from .forensics import AttackReport, characterize_attack
from .figures import (
    FigureSeries,
    attack_cusum_figure,
    dynamics_figure,
    figure3,
    figure4,
    figure5,
    figure7,
    figure8,
    figure9,
    normal_cusum_figure,
)
from .metrics import (
    DetectionPerformance,
    FalseAlarmEstimate,
    TrialOutcome,
    aggregate_trials,
    estimate_false_alarm_time,
)
from .report import render_comparison, render_series, render_table, sparkline
from .runner import (
    DetectionTrialConfig,
    attack_start_range_minutes,
    run_detection_sweep,
    run_detection_trial,
    run_normal_operation,
)
from .tables import (
    TABLE2_PAPER,
    TABLE3_PAPER,
    DetectionTableRow,
    detection_table,
    table1,
    table2,
    table3,
)

__all__ = [
    "CampaignResult",
    "NetworkOutcome",
    "simulate_campaign",
    "ChaosArm",
    "ChaosReport",
    "render_chaos_report",
    "run_chaos_campaign",
    "SensitivityCell",
    "recommend_parameters",
    "sweep_parameters",
    "counts_from_pcaps",
    "detect_from_pcaps",
    "attack_report_to_dict",
    "detection_result_to_dict",
    "figure_to_dict",
    "save_json",
    "table_rows_to_dict",
    "AttackReport",
    "characterize_attack",
    "FigureSeries",
    "attack_cusum_figure",
    "dynamics_figure",
    "figure3",
    "figure4",
    "figure5",
    "figure7",
    "figure8",
    "figure9",
    "normal_cusum_figure",
    "DetectionPerformance",
    "FalseAlarmEstimate",
    "TrialOutcome",
    "aggregate_trials",
    "estimate_false_alarm_time",
    "render_comparison",
    "render_series",
    "render_table",
    "sparkline",
    "DetectionTrialConfig",
    "attack_start_range_minutes",
    "run_detection_sweep",
    "run_detection_trial",
    "run_normal_operation",
    "TABLE2_PAPER",
    "TABLE3_PAPER",
    "DetectionTableRow",
    "detection_table",
    "table1",
    "table2",
    "table3",
]
