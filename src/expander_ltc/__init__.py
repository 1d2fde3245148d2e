"""Locally testable codes from balanced products of expanding Cayley factors.

The library builds 3-term GF(2) chain complexes by quotienting products of
group-symmetric bipartite graphs, certifies small-set vertex expansion of the
factors exhaustively, and verifies at desk scale the structural facts the
construction rests on: copy decompositions, unique-neighbor bounds, the
weighted small-set testability inequality, and exact soundness.

The namespace is lazy: importing the package, or any one submodule, executes
no other submodule.  A public name imports its defining submodule on first
access, so a command loads only the layers it runs.
"""

# Each public name, listed under the submodule that defines it.
_EXPORTS = {
    "analysis": (
        "C1Vector",
        "CodeInstance",
        "DistanceReport",
        "FlipResult",
        "LocallyMinimalDistance",
        "LTProfile",
        "SmallSetCheck",
        "SmallSetSummary",
        "SoundnessReport",
        "boundary_1",
        "c0_weighted_norm",
        "code_from_complex",
        "distance_certificate",
        "greedy_flip",
        "is_locally_minimal",
        "locally_minimal_distance",
        "lt_profile",
        "sharp_example",
        "small_set_suite",
        "soundness_exhaustive",
        "soundness_from_lt",
        "weighted_norm",
    ),
    "errors": (
        "BudgetExceededError",
        "ConfigError",
        "DegenerateCodeError",
        "ExpanderLtcError",
        "FreenessViolationError",
        "InvalidParameterError",
        "InvalidWedgeError",
        "IrregularGraphError",
        "MultiplicityViolationError",
        "PreconditionViolationError",
        "SizeLimitError",
        "VerificationError",
    ),
    "f2": ("BitMatrix", "BitVector", "kernel_basis", "min_weight_nonzero", "rank"),
    "formats": (
        "matrix_from_alist",
        "matrix_from_dense_text",
        "matrix_to_alist",
        "matrix_to_dense_text",
    ),
    "graphs": (
        "BipartiteGraph",
        "ExpansionCertificate",
        "GraphAction",
        "Regularity",
        "certify_expansion",
        "check_invariance",
        "check_regularity",
        "check_unique_neighbor_lemma",
        "graph_from_edge_list",
        "graph_to_edge_list",
        "layered_cayley",
        "small_set_epsilon",
    ),
    "groups": (
        "FiniteGroup",
        "GroupAction",
        "OrbitLabeling",
        "block_action",
        "group_from_spec",
        "left_regular_action",
        "make_cyclic",
        "make_direct_product",
        "orbit_labeling",
        "right_regular_action_as_left",
    ),
    "products": (
        "BalancedProductComplex",
        "OneDSubgraph",
        "balanced_product",
        "inherited_expansion",
        "left_right_cayley",
        "one_d_subgraph",
        "verify_chain_identity",
        "verify_copy_decomposition",
    ),
    "search": (
        "SearchResult",
        "SearchSpec",
        "random_generating_set",
        "search_pair",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, looked up in its submodule at every access (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
