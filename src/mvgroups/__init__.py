"""Exact computation with finitely generated n-valued groups."""

from .multiset import flatten
from .groups import (
    Automorphism,
    AutomorphismGroup,
    CyclicGroup,
    DirectProduct,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupBackend,
    HeisenbergGroup,
    PermutationGroup,
    SemidirectProduct,
    close_automorphisms,
    identity_automorphism,
    monoid_balls,
    layers,
    orbit,
)
from .mvalued import (
    CosetGroup,
    DoubleCosetGroup,
    MvGroup,
    MutatedNatGroup,
    NatGroup,
    OrbitGroup,
    check_axioms,
)
from .cayley import (
    GrowthTable,
    PowerTable,
    ball,
    compare_generating_sets,
    length,
    lengths,
    power_table,
)
from .wordspec import (
    Instance,
    InstanceConfig,
    build_instance,
    load_instance,
    parse_config,
    parse_word,
    render_word,
)

__version__ = "0.1.0"
