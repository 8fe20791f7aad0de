"""Finite matched pairs, twisted products, pointed crossed categories, and
their braided centers, with exhaustive desk-scale verification."""

from .braided import (BraidedMatchedPair, center_braiding, center_pair, turaev_braiding,
                      verify_braiding)
from .center import (CenterSimple, CenterStructure, enumerate_center, equivariant_center,
                     graded_center, relative_center_oracle, verify_center_braided)
from .groups import (FiniteGroup, GroupHom, cyclic, dihedral, direct_product, group_hom,
                     identity_hom, subgroup_from_generators, symmetric, trivial_group,
                     twisted_characters, validate_group)
from .jsonio import (load_braided, load_category, load_group, load_matched, save_braided,
                     save_category, save_group, save_matched)
from .matched import (MatchedPair, direct_pair, from_exact_factorization, matched_pair,
                      turaev_pair, verify_matched_pair, zappa_szep)
from .pointed import PointedCrossedCategory, pointed_category, vec_gamma, verify_crossed_category
from .report import VerificationReport
from .words import check_coherence, print_word

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
