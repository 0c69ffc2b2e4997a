"""Benchmark harness and paper-style reporting."""

from .harness import SweepPoint, SystemResult, run_system, speedup
from .perfgate import compare_payloads, run_gate
from .report import (
    format_comparison,
    format_figure10,
    format_sweep,
    format_table,
    sweep_point_to_dict,
    system_result_to_dict,
)

__all__ = [
    "SweepPoint",
    "SystemResult",
    "compare_payloads",
    "format_comparison",
    "run_gate",
    "format_figure10",
    "format_sweep",
    "format_table",
    "run_system",
    "speedup",
    "sweep_point_to_dict",
    "system_result_to_dict",
]
