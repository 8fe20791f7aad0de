"""Finite matched pairs, twisted products, pointed crossed categories, and
their braided centers, with exhaustive desk-scale verification.

The package imports a submodule only when one of its names, or the submodule
itself, is first read (PEP 562), so a CLI command loads only what it runs.
"""

import importlib

# the public names of each submodule; the submodules are public too
_EXPORTS = {
    "braided": ("BraidedMatchedPair", "braided_pair", "center_braiding", "center_pair",
                "turaev_braiding", "verify_braiding"),
    "center": ("CenterSimple", "CenterStructure", "enumerate_center", "relative_center_oracle",
               "verify_center_braided"),
    "errors": (),
    "groups": ("FiniteGroup", "cyclic", "dihedral", "direct_product", "subgroup_from_generators",
               "symmetric", "trivial_group", "twisted_characters", "validate_group"),
    "jsonio": ("load_braided", "load_category", "load_group", "load_matched", "save_braided",
               "save_category", "save_group", "save_matched"),
    "matched": ("MatchedPair", "direct_pair", "from_exact_factorization", "matched_pair",
                "turaev_pair", "verify_matched_pair", "zappa_szep"),
    "pointed": ("PointedCrossedCategory", "pointed_category", "vec_gamma",
                "verify_crossed_category"),
    "records": (),
    "report": ("VerificationReport",),
    "words": ("print_word", "verify_coherence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
