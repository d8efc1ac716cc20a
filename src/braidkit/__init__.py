"""Computational workbench for braid and surface braid group presentations.

Exact free-group word algebra, finite presentations with Z-indexed relator
families, integer linear algebra (Smith forms), Garside normal forms,
Reidemeister-Schreier subgroup presentations, Stallings foldings, lower
central series quotients, and homomorphism verification.

`import braidkit` loads no layer: each public name is bound from its home
module on first use (PEP 562), so a command pays only for what it runs.
"""

from importlib import import_module

# public name -> its home module, in __all__ order
_HOME = {name: module for module, names in (
    ("words", ("Gen", "Word", "parse_word", "word_to_text")),
    ("presentations", ("IndexedPresentation", "Presentation", "parse_presentation")),
    ("intlin", ("IntMatrix", "matrix", "smith_normal_form")),
    ("garside", ("BraidNF", "braid_equal", "normal_form")),
    ("freesub", ("SubgroupGraph", "contains", "express", "fold")),
    ("reidschreier", ("RsOutput", "rs_coset_table", "rs_finite_cyclic",
                      "rs_z_window", "tietze_eliminate")),
    ("series", ("AbelianInvariants", "abelianization", "gamma2_mod_gamma3",
                "lcs_rank_torus", "lcs_rank_z2_free", "windowed_coinvariants")),
    ("hom", ("HomReport", "check_hom")),
) for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value
