"""quadembed: exact-arithmetic embeddings of quadratic spaces into algebras."""

from .scalars import (
    QQ,
    RingError,
    Scalar,
    ScalarMatrix,
    ShapeError,
    ZZ,
    Zmod,
    rank_in_ring,
    solve_in_ring,
)
from .qspace import (
    QuadraticSpace,
    diagonal_space,
    hyperbolic,
    negate,
    orthogonal_sum,
    split_isometry,
)
from .clifford import (
    CliffordElement,
    CliffordRelationError,
    check_graded_iso_sum,
    embed_vector,
    extend_universal,
    grade_component,
    grade_involution,
    is_homogeneous,
    pbw_basis,
    standard_involution,
)
from .algmat import (
    AlgMatrix,
    CliffordCoeffs,
    block2,
    parity_of_block_matrix,
    span_coords,
)
from .embedding import (
    Embedding,
    EmbeddingError,
    InvolutionForm,
    build_phi,
    check_alpha_order_two,
    clifford_self_embedding,
    involutions_conflict_check,
    jordan_product,
    lift_involution,
    validate_embedding,
)
from .suslin import (
    SuslinPair,
    catalog_generators,
    catalog_space,
    check_suslin_identities,
    derive_j,
    hyperbolic_clifford_iso,
    suslin_embedding,
)
from .spin import EvenPair, GroupElement, SpinContext

# `suslin` and `suslin_bar` stay in `quadembed.suslin`: binding them here
# would shadow the submodule of the same name.
__all__ = [
    # scalars
    "QQ", "RingError", "Scalar", "ScalarMatrix", "ShapeError", "ZZ", "Zmod",
    "rank_in_ring", "solve_in_ring",
    # qspace
    "QuadraticSpace", "diagonal_space", "hyperbolic", "negate", "orthogonal_sum",
    "split_isometry",
    # clifford
    "CliffordElement", "CliffordRelationError", "check_graded_iso_sum", "embed_vector",
    "extend_universal", "grade_component", "grade_involution", "is_homogeneous",
    "pbw_basis", "standard_involution",
    # algmat
    "AlgMatrix", "CliffordCoeffs", "block2", "parity_of_block_matrix", "span_coords",
    # embedding
    "Embedding", "EmbeddingError", "InvolutionForm", "build_phi", "check_alpha_order_two",
    "clifford_self_embedding", "involutions_conflict_check", "jordan_product",
    "lift_involution", "validate_embedding",
    # suslin
    "SuslinPair", "catalog_generators", "catalog_space", "check_suslin_identities",
    "derive_j", "hyperbolic_clifford_iso", "suslin_embedding",
    # spin
    "EvenPair", "GroupElement", "SpinContext",
]
