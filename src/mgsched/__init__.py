"""Bounded-delay packet scheduling: model, policies, optimum, experiments."""

from .analysis import (
    ChainInstance,
    SweepCell,
    SweepReport,
    chain_bound,
    check_chain,
    random_chain,
    sweep,
    table1_cells,
)
from .generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound, lb_ratio_formula
from .model import (
    PHI,
    UNBOUNDED,
    Instance,
    Packet,
    classify_variants,
    dumps_instance,
    load_instance,
    loads_instance,
    validate_instance,
)
from .offline import OffSchedule, RatioReport, empirical_ratio, offline_optimal
from .policies import PolicyKind, PolicyParams, SimulationTrace, simulate

__all__ = [
    "PHI",
    "UNBOUNDED",
    "ChainInstance",
    "GenSpec",
    "Instance",
    "LowerBoundSpec",
    "OffSchedule",
    "Packet",
    "PolicyKind",
    "PolicyParams",
    "RatioReport",
    "SimulationTrace",
    "SweepCell",
    "SweepReport",
    "chain_bound",
    "check_chain",
    "classify_variants",
    "dumps_instance",
    "empirical_ratio",
    "generate",
    "generate_lower_bound",
    "lb_ratio_formula",
    "load_instance",
    "loads_instance",
    "offline_optimal",
    "random_chain",
    "simulate",
    "sweep",
    "table1_cells",
    "validate_instance",
]
