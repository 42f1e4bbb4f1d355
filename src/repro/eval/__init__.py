"""Evaluation harness: figure builders, reports and tables.

The Fig. 6 runs themselves are scenarios executed by :mod:`repro.api`; this
package turns their records into figures and text.
"""

from .figures import (
    AXIS_ORDER,
    PAPER_AVERAGE_KPA,
    AxisSweepData,
    Figure6Data,
    ObservationPool,
    TrajectoryData,
    figure4_observation_analysis,
    figure5_design,
    figure5_surface,
    figure5_trajectories,
    figure6_from_store,
    axis_sweeps_from_records,
    axis_sweeps_from_store,
)
from .reporting import (
    ShapeCheck,
    experiment_report_from_store,
    kpa_tables_from_samples,
    report_from_samples,
    shape_checks,
    store_report,
    store_report_json,
)
from .tables import (
    average_kpa_text,
    axis_sweep_table_text,
    format_table,
    kpa_table_text,
    observation_table_text,
    timing_table_text,
    trajectory_table_text,
)

__all__ = [
    "PAPER_AVERAGE_KPA",
    "AXIS_ORDER",
    "AxisSweepData",
    "Figure6Data",
    "ObservationPool",
    "TrajectoryData",
    "figure4_observation_analysis",
    "figure5_design",
    "figure5_surface",
    "figure5_trajectories",
    "figure6_from_store",
    "axis_sweeps_from_records",
    "axis_sweeps_from_store",
    "ShapeCheck",
    "experiment_report_from_store",
    "kpa_tables_from_samples",
    "report_from_samples",
    "shape_checks",
    "store_report",
    "store_report_json",
    "average_kpa_text",
    "axis_sweep_table_text",
    "format_table",
    "kpa_table_text",
    "observation_table_text",
    "timing_table_text",
    "trajectory_table_text",
]
