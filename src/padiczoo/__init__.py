"""Exact p-adic arithmetic plus a verified gallery of pathological functions."""

from .core import (
    DEFAULT_PRECISION,
    DomainError,
    InsufficientPrecision,
    PadicError,
    PadicNumber,
    parse_padic,
    pow_one_plus,
)
from .families import IndexSet, generate_family, cell
from .quotients import PadicFunction, WitnessTrace, phi_r, probe_derivative, \
    probe_strict
from .vanderput import criterion_products
from .zoo import ENTRY_NAMES, ZooEntry, build_entry
from .haar import MCReport, estimate_E_prefix_series, estimate_Y0

__all__ = [
    "DEFAULT_PRECISION",
    "DomainError",
    "InsufficientPrecision",
    "PadicError",
    "PadicNumber",
    "parse_padic",
    "pow_one_plus",
    "IndexSet",
    "generate_family",
    "cell",
    "PadicFunction",
    "WitnessTrace",
    "phi_r",
    "probe_derivative",
    "probe_strict",
    "criterion_products",
    "ENTRY_NAMES",
    "ZooEntry",
    "build_entry",
    "MCReport",
    "estimate_E_prefix_series",
    "estimate_Y0",
]
