"""Comparison systems: tuple-based IVM, recomputation and simulated DBToaster."""

from .recompute import RecomputeEngine
from .sdbt import SdbtEngine
from .tuple_ivm import TupleIvmEngine

__all__ = ["RecomputeEngine", "SdbtEngine", "TupleIvmEngine"]
