"""Computational workbench for braid and surface braid group presentations.

Exact free-group word algebra, finite presentations with Z-indexed relator
families, integer linear algebra (Smith forms), Garside normal forms,
Reidemeister-Schreier subgroup presentations, Stallings foldings, lower
central series quotients, and homomorphism verification.
"""

from .words import Gen, Word, parse_word, word_to_text
from .presentations import (IndexedPresentation, Presentation,
                            parse_presentation)
from .intlin import IntMatrix, matrix, smith_normal_form
from .garside import BraidNF, braid_equal, normal_form
from .freesub import SubgroupGraph, express, fold, membership
from .reidschreier import (RsOutput, rs_coset_table, rs_finite_cyclic,
                           rs_z_window, tietze_eliminate)
from .series import (AbelianInvariants, abelianization, gamma2_mod_gamma3,
                     lcs_rank_torus, lcs_rank_z2_free, windowed_coinvariants)
from .hom import HomReport, check_hom, image_order

__all__ = [
    "Gen", "Word", "parse_word", "word_to_text",
    "IndexedPresentation", "Presentation", "parse_presentation",
    "IntMatrix", "matrix", "smith_normal_form",
    "BraidNF", "braid_equal", "normal_form",
    "SubgroupGraph", "express", "fold", "membership",
    "RsOutput", "rs_coset_table", "rs_finite_cyclic", "rs_z_window",
    "tietze_eliminate", "AbelianInvariants", "abelianization",
    "gamma2_mod_gamma3", "lcs_rank_torus", "lcs_rank_z2_free",
    "windowed_coinvariants", "HomReport", "check_hom", "image_order",
]
