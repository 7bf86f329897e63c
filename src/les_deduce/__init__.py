"""Deduction engine over F2 chart data for three long exact sequences."""

from .algebra import (
    ActionFact,
    ActionTable,
    Classification,
    ClassificationKind,
    Element,
    F2Span,
    LesContext,
    ModuleId,
    RingGenerator,
    Value,
    ZERO,
    filtration_floor,
    span_add,
    span_of,
)
from .chartdata import ChartFile, delta8_extend, expand_periodic, load, loads, save
from .families import build_table, classify_three_options, emit_families
from .rules import saturate
from .sequences import FactStore, image_of_p3

__all__ = [
    "ActionFact",
    "ActionTable",
    "ChartFile",
    "Classification",
    "ClassificationKind",
    "Element",
    "F2Span",
    "FactStore",
    "LesContext",
    "ModuleId",
    "RingGenerator",
    "Value",
    "ZERO",
    "build_table",
    "classify_three_options",
    "delta8_extend",
    "emit_families",
    "expand_periodic",
    "filtration_floor",
    "image_of_p3",
    "load",
    "loads",
    "save",
    "saturate",
    "span_add",
    "span_of",
]
