"""Exact face-lattice and f-vector computations for order, chain, and
chain-order polytopes of finite posets, with two independent pipelines:
geometric (face iteration over vertex-facet incidences) and combinatorial
(face normal forms of maximal ranked posets)."""

from .errors import BudgetError, ConfigError, InconsistentInputError
from .facelattice import FaceLattice, IncidenceMatrix, count_faces, enumerate_faces, f_vector, incidence_matrix
from .normalform import (
    FaceNormalForm,
    codimension,
    enumerate_normal_forms,
    f_vector_normal_form,
    psi_map,
    verify_injection,
    verify_monotone,
)
from .polytopes import (
    HRep,
    VRep,
    chain_order_dd,
    chain_order_hrep,
    chain_polytope_dd,
    lattice_point_count,
    order_polytope_dd,
    vertex_enum_exact,
    zero_one_vertices,
)
from .posets import (
    Poset,
    extend_poset,
    has_hl_pattern,
    make_maximal_ranked,
    validate_face_partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
