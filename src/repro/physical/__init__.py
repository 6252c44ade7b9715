"""Volcano-style streaming physical layer (logical → physical split).

``lower()`` turns a logical expression into a :class:`PhysicalPlan` of
``open()/next_batch()/close()`` operators; every query runs by driving that
plan.  See :mod:`repro.physical.base` for the execution model and the
accounting contract.
"""

from .base import ExecutionContext, PhysicalOp, PhysicalPlan
from .lower import PipelineFactory, lower, lower_factory
from . import operators

__all__ = [
    "ExecutionContext",
    "PhysicalOp",
    "PhysicalPlan",
    "PipelineFactory",
    "lower",
    "lower_factory",
    "operators",
]
