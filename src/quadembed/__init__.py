"""quadembed: exact-arithmetic embeddings of quadratic spaces into algebras.

Each public name is resolved on first use from the submodule that owns it
(PEP 562), so `import quadembed` alone loads no submodule.
"""

from importlib import import_module

# The command-line parser's tables live here, so that building it loads no
# submodule; suites.py, suslin.py and clifford.py bind them from here.
SUITES = ("suslin", "clifford", "embedding", "spin", "catalog")
FAMILIES = ("hyperbolic2n", "odd2n1", "even2n2")
RANK_LIMIT = 12

# `suslin` and `suslin_bar` stay in `quadembed.suslin`: listing them here
# would shadow the submodule of the same name.
_NAMES = {
    "scalars": "QQ RingError Scalar ScalarMatrix ShapeError ZZ Zmod rank_in_ring solve_in_ring",
    "qspace": "QuadraticSpace diagonal_space hyperbolic negate orthogonal_sum split_isometry",
    "clifford": "CliffordElement CliffordRelationError check_graded_iso_sum embed_vector"
    " extend_universal grade_component grade_involution is_homogeneous pbw_basis standard_involution",
    "algmat": "AlgMatrix CliffordCoeffs block2 parity_of_block_matrix span_coords",
    "embedding": "Embedding EmbeddingError InvolutionForm build_phi check_alpha_order_two"
    " clifford_self_embedding involutions_conflict_check jordan_product lift_involution validate_embedding",
    "suslin": "SuslinPair catalog_generators catalog_space check_suslin_identities derive_j"
    " hyperbolic_clifford_iso suslin_embedding",
    "spin": "EvenPair GroupElement SpinContext",
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name):
    if name in _NAMES:
        return import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_NAMES})
