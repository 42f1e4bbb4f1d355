"""Evaluation harness: figure builders, reports and tables.

The Fig. 6 runs themselves are scenarios executed by :mod:`repro.api`; this
package turns their records into figures and text.  A store report reads
the store once (:func:`~repro.eval.reporting.store_context`); its Fig. 6a
and 6b tables are the ``figure6`` block of :func:`store_report_json`.
"""

from .figures import (
    AXIS_ORDER,
    PAPER_AVERAGE_KPA,
    AxisSweepData,
    ObservationPool,
    TrajectoryData,
    figure4_observation_analysis,
    figure5_design,
    figure5_surface,
    figure5_trajectories,
    axis_sweeps_from_records,
)
from .reporting import (
    ShapeCheck,
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
    "ObservationPool",
    "TrajectoryData",
    "figure4_observation_analysis",
    "figure5_design",
    "figure5_surface",
    "figure5_trajectories",
    "axis_sweeps_from_records",
    "ShapeCheck",
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
