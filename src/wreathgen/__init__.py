"""Minimal generator counts of iterated wreath products.

Closed-form evaluation (`d_tower`, `d_corollary`) with independent
certification: permutation-group algorithms (`permcore`), modular
representation and cohomology computations (`modfp`), and brute-force
generation oracles (`oracle`).  The package does not re-export `modfp`'s
names: they are reached as `wreathgen.modfp`.
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

__all__ = [
    "BadInput", "BudgetExceeded", "CayleyTable", "ConsistencyError",
    "CyclicTopError", "DegreeMismatch", "FormulaResult", "GenResult",
    "GroupSpec", "ParseError", "PermGroup", "Permutation", "TowerSpec",
    "TrivialLevelError", "abelianization", "apply_at_vertex", "bsgs_build",
    "counting_profile", "d_corollary", "d_lower_bound", "d_tower",
    "example_generators", "example_tower", "find_generating_tuple",
    "format_cycles", "min_generators", "parse_cycles", "parse_group",
    "parse_tower", "standard_generators", "tower_generators", "tower_group",
]
