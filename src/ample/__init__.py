"""Free-group toolkit and mechanical checker for an ampleness witnessing
sequence built from primitive elements."""

from .config import Config
from .imaginaries import (
    CosetQuery,
    e1_conjugation,
    e2_left_coset,
    e3_right_coset,
    e4_double_coset,
)
from .jsj import (
    EdgeGroup,
    GraphOfGroups,
    VertexGroup,
    acl_from_catalog,
    aclc_member_from_catalog,
    example_jsj,
    singleton_jsj,
    validate,
    witness_jsj_left,
    witness_jsj_right,
)
from .sequence import commutator_chain, witness
from .stallings import (
    ComponentWitness,
    SubgroupGraph,
    basis,
    build_core,
    conjugacy_intersection,
    contains,
    cyclic_core,
    equals,
    intersect,
    is_conjugate_into,
    rank,
)
from .verifier import (
    ResourceLimitError,
    VerificationReport,
    check_clause1,
    check_clause2,
    check_clause3,
    check_clause4,
    verify_ample,
)
from .whitehead import (
    MinimizationTrace,
    WhiteheadAut,
    apply,
    enumerate_whitehead_autos,
    is_basis,
    is_free_factor_tuple,
    is_primitive,
    minimize,
)
from .words import (
    CyclicWord,
    Word,
    commutator,
    cyclic_reduce,
    invert,
    is_conjugate,
    multiply,
    parse_word,
    primitive_root,
)

__version__ = "0.1.0"
