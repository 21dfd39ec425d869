"""Bounded-delay packet scheduling: model, policies, optimum, experiments."""

from .analysis import (
    ChainInstance,
    SweepCell,
    SweepReport,
    chain_bound,
    check_chain,
    extremal_chain,
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
from .offline import OffSchedule, RatioReport, brute_force_optimal, empirical_ratio, offline_optimal
from .policies import (
    PolicyKind,
    PolicyParams,
    SimulationTrace,
    edf_alpha_select,
    mg_select,
    simulate,
)
from .provisional import optimal_provisional_schedule

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
    "brute_force_optimal",
    "chain_bound",
    "check_chain",
    "classify_variants",
    "dumps_instance",
    "edf_alpha_select",
    "empirical_ratio",
    "extremal_chain",
    "generate",
    "generate_lower_bound",
    "lb_ratio_formula",
    "load_instance",
    "loads_instance",
    "mg_select",
    "offline_optimal",
    "optimal_provisional_schedule",
    "random_chain",
    "simulate",
    "sweep",
    "table1_cells",
    "validate_instance",
]
