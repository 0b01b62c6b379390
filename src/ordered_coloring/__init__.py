"""Decision procedures for the list-3-coloring problem on ordered graphs.

The package provides exact solvers (one for instances excluding a fixed
single-edge pattern with isolated padding, one for instances excluding a
padded two-forward-edge pattern), a dichotomy classifier over forbidden
patterns, generators for the hardness gadget constructions, and an
exhaustive oracle that cross-validates everything at desk scale.
"""

from .core import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    OrderedGraph,
    contains_pattern,
    is_isomorphic,
)
from .errors import (
    CapExceededError,
    InputError,
    InternalError,
    PreconditionError,
    RefusalError,
)
from .gadgets import (
    GadgetOutput,
    GadgetReport,
    gen_bipartite,
    gen_h1,
    gen_h2,
    gen_h3,
    gen_h4,
    gen_h5,
    realize_lists,
    verify_gadget,
)
from .j16 import solve_j16
from .jw import solve_jw
from .kernels import (
    has_k4,
    solve_chordal,
    solve_small_class,
    solve_two_lists,
)
from .oracle import (
    NaeInstance,
    enumerate_colorings,
    nae_bruteforce,
    solve_bruteforce,
)
from .patterns import (
    ComplexityVerdict,
    NP_COMPLETE,
    OPEN,
    POLYNOMIAL,
    PatternId,
    build_pattern,
    classify,
    parse_pattern_id,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
