"""Minimal generator counts of iterated wreath products.

Closed-form evaluation (`d_tower`, `d_corollary`) with independent
certification: permutation-group algorithms (`permcore`), modular
representation and cohomology computations (`modfp`), and brute-force
generation oracles (`oracle`).
"""

from .permcore import (
    BadInput,
    BudgetExceeded,
    ConsistencyError,
    DegreeMismatch,
    ParseError,
    PermGroup,
    Permutation,
    bsgs_build,
    format_cycles,
    parse_cycles,
)
from .wreath import (
    GroupSpec,
    TowerSpec,
    TrivialLevelError,
    apply_at_vertex,
    example_generators,
    example_tower,
    parse_group,
    parse_tower,
    standard_generators,
    tower_generators,
    tower_group,
)
from .formula import (
    CyclicTopError,
    FormulaResult,
    abelianization,
    counting_profile,
    d_corollary,
    d_tower,
)
from .oracle import (
    CayleyTable,
    GenResult,
    d_lower_bound,
    find_generating_tuple,
    min_generators,
)

__version__ = "0.1.0"

# modfp imports numpy, which takes longer than anything `formula`, `verify`
# or `example` computes, so its names are bound on first access (PEP 562)
_MODFP_EXPORTS = ("CohomReport", "FpModule", "IpReport", "check_Ip_structure",
                  "cocycle_dims", "cohomology_of_Ip", "h_param")


def __getattr__(name):
    if name not in _MODFP_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import modfp

    globals().update((n, getattr(modfp, n)) for n in _MODFP_EXPORTS)
    return globals()[name]


__all__ = [
    "BadInput", "BudgetExceeded", "CayleyTable", "CohomReport",
    "ConsistencyError", "CyclicTopError", "DegreeMismatch",
    "FormulaResult", "FpModule", "GenResult", "GroupSpec",
    "IpReport", "ParseError", "PermGroup", "Permutation",
    "TowerSpec", "TrivialLevelError", "abelianization",
    "apply_at_vertex", "bsgs_build", "check_Ip_structure",
    "cocycle_dims", "cohomology_of_Ip", "counting_profile", "d_corollary",
    "d_lower_bound", "d_tower", "example_generators", "example_tower",
    "find_generating_tuple", "format_cycles", "h_param", "min_generators",
    "parse_cycles", "parse_group", "parse_tower", "standard_generators",
    "tower_generators", "tower_group",
]
