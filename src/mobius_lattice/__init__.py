"""Mobius functions of stabilizer ideals in finite linear groups, verified
against alternating subset sums and reduced Euler characteristics on
exhaustively enumerable instances."""

from .gfq import FqField
from .linalg import (
    Matrix,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    invariant_subspaces,
    rref,
)
from .group import (
    GroupSet,
    SubgroupRef,
    closure,
    is_irreducible,
    overgroup_interval,
    stabilizer,
)
from .poset import (
    FinitePoset,
    mobius_row,
)
from .simplicial import (
    EulerReport,
    SimplicialComplex,
    complex_from_faces,
    euler,
)
from .identities import (
    AlternatingSums,
    IdentityReport,
    ReducibleIdeal,
    StabilizerFamily,
    alternating_sums,
    build_complexes,
    build_ideal,
    mobius_between,
    mu_ideal,
    stabilizer_family,
    subgroup_lattice,
    verify_identities,
)

__version__ = "0.1.0"
