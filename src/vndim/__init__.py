"""vndim: exact arithmetic for lattice covolumes and von Neumann dimensions.

The central identity throughout: for a lattice in a group with a Haar measure
and a square-integrable irreducible representation, the von Neumann dimension
of the representation as a module over the lattice's group von Neumann algebra
equals (formal dimension) x (covolume), the measure dependence cancelling in
the product.  The package evaluates this exactly on both the PSL(2,R) side
(Fuchsian signatures, cusp-form dimension formula) and the PGL(2,F) side
(free lattices on the building, Steinberg and depth-zero cuspidal series),
together with brute-force oracles for every finite claim involved.
"""

# The public API is exactly the names imported here.
from .errors import DomainError
from .exact import PI, PiRational, parse_pi_rational
from .factors import free_group_index, jones_index, matrix_coupling
from .finite_field import (
    PrimePower,
    brute_force_regular_characters,
    count_regular_characters,
    enumerate_gl2,
    finite_rep_dims,
    group_orders,
    is_regular,
    norm_trace_facts,
)
from .fuchsian import (
    FuchsianSignature,
    GroupMode,
    catalog,
    covolume,
    cusp_form_dim,
    discrete_series_multiplicity,
    formal_dimension_psl,
    minimal_discrete_series_weight,
    parse_signature,
    two_lattice_vn_dimension,
    vn_dimension,
)
from .padic import (
    HaarNormalization,
    JLClass,
    JLTag,
    PadicRep,
    ReducedWeylWord,
    depth_zero_formal_dim,
    extension_level_arithmetic,
    haar_volumes,
    ihara_lattice,
    jl_formal_dim,
    lattice_covolume,
    padic_abs,
    padic_valuation,
    quadratic_extension_count,
    steinberg_formal_dim,
    ultrametric_check,
    vn_dimension_padic,
    weyl_closed_form,
    weyl_enumerate,
    weyl_partial_sum,
)

__version__ = "0.1.0"
