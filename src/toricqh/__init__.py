"""Exact quantum cohomology of nonsingular projective toric varieties
whose fans sit in the well-behaved tiers, with primitive relations,
stratum bases, Giambelli lifts, blow-down towers, and curve trees.

The namespace is lazy (PEP 562): `import toricqh` loads only `errors`.
An exported name, or a submodule such as `toricqh.quantum`, is imported
from its home module on first access, so a process compiles only the
layers it uses.
"""

import sys as _sys

from . import errors
from .errors import SearchBudgetExceeded

__version__ = "0.1.0"

# home module -> the names the package exports from it; each key also
# resolves as a submodule after a bare `import toricqh`
_EXPORTS = {
    "fan": (
        "Fan", "ValidationReport", "CurveClass", "PrimitiveData", "validate", "faces", "is_cone",
        "curve_class", "primitive_sets", "primitive_relation", "primitive_data", "star",
        "decompose_effective", "is_isomorphic", "clear_caches", "load_fan", "fan_from_json",
        "fan_to_json",
    ),
    "fano": (
        "Tier", "ClassTier", "ExceptionalData", "classify", "check_condition_iii",
        "exceptional_sets", "special_exceptional_sets", "family_predicates",
        "primitive_exceptional_sets", "blow_down", "blow_down_tower",
        "is_product_of_projective_spaces",
    ),
    "cohomology": (
        "Shelling", "CohomologyClass", "shelling", "normal_form", "cup", "stratum_class",
        "integrate", "betti_census", "basis_tau", "basis_class", "unit_class", "point_class",
        "class_degrees", "degree_dimension",
    ),
    "quantum": (
        "QuantumClass", "QuantumTerm", "Presentation", "presentation", "giambelli",
        "divisor_product_closed_form", "reduce_monomial", "evaluate_terms", "quantum_product",
        "gw3", "quantum_degrees", "classical", "zero_curve",
    ),
    "curves": (
        "ToricTree", "signed_distance", "wall_curve_class", "min_tree", "tree_for_class",
        "tree_total",
    ),
    "catalog": (
        "projective_space", "projective_plane", "product_p1p1", "hirzebruch", "blowup_p2_one",
        "blowup_p2_two", "blowup_p2_three", "twisted_bundle_threefold", "corpus", "census",
    ),
    "lattice": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", "SearchBudgetExceeded", *_HOME]


def __getattr__(name: str):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin __import__, unlike importlib.import_module, shows in
    # `python -X importtime`
    __import__(f"{__name__}.{home}")
    module = _sys.modules[f"{__name__}.{home}"]
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
