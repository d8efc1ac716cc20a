"""Named verification suite.

Each check recomputes one published value from scratch and compares exactly.
The reference data of the 4-strand disc braid group's derived-series
computation is frozen here, as printed in the source material: the generator
images of the u and v automorphisms of F2(a, b) and of their inverses, which
`words.substitute` applies; the preferred z-basis of N = ker(F2 -> Z2 x Z2)
and its weights; the u, v and commutator matrices on that basis, with their
printed inverses, the rank-2 lattice and the template of the conjugating
automorphisms; the tables of u- and v-conjugates; the printed Schreier basis;
and the shifted kernel system of the half-twist check.  No matrix is inverted
here: every inverse is built from the printed inverses of M_U, M_V and M_C,
which the `mat-u-inverse`, `mat-v-inverse` and `mat-c-inverse` checks guard.

The suite is one ordered registry of (id, description, thunk) entries; a
thunk returns (expected, got) and runs only when its id is selected.  To add
a check, add one ``_register(id, description, thunk)`` call where the check
should appear in the output; a homomorphism check is a HOM_CHECKS entry, its
group named by its `presentations` builder and its images written as the
`--assign` text that hom-check replays it from.  The module loads `words`
and `intlin` only; a thunk imports every other layer it runs in its body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from functools import partial, reduce
from importlib import import_module
from typing import Callable, Optional

from .intlin import (IntMatrix, abelian_invariants, identity, lattice_restrict,
                     mat_mul, mat_pow, matrix, smith_normal_form, solve_in_lattice)
from .words import (Gen, Word, commutator, conjugate, exponent_sum, invert, letter,
                    multiply, parse_word, power, substitute)

# ---------------------------------------------------------------------------
# frozen reference data

A, B = Gen("a"), Gen("b")

# the u- and v-actions of the rank-2 free quotient on F2(a, b), by generator
# images, and the images of their inverses
DISC_U = {A: parse_word("b"), B: parse_word("b^2 a^-1 b")}    # a -> b, b -> b^2 a^-1 b
DISC_U_INV = {A: parse_word("a b^-1 a^2"), B: parse_word("a")}
DISC_V = {A: parse_word("a^-1 b"),                            # a -> a^-1 b,
          B: parse_word("a^-1 b a^-1 b a^-1 b a^-2 b")}       # b -> (a^-1 b)^3 a^-2 b
DISC_V_INV = {A: parse_word("a b^-1 a^3"), B: parse_word("a b^-1 a^4")}

# the preferred free basis z1..z5 of N = ker(F2(a, b) -> Z2 x Z2), and its
# weights under the degree map rho
Z_BASIS = tuple(map(parse_word, ("a^2", "b^2", "a b a b", "b a^2 b^-1", "a b^2 a^-1")))
Z_WEIGHTS = {Gen("z", (i,)): w for i, w in enumerate((1, 1, 1, -1, -1), 1)}

M_U = matrix([[0, -1, 0, 0, 0], [1, 1, 2, 0, 2], [0, 1, 0, 0, -1],
              [0, -1, -1, 0, 0], [0, 1, 2, 1, 2]])
M_U_INV = matrix([[1, 1, 2, 2, 0], [-1, 0, 0, 0, 0], [1, 0, 0, -1, 0],
                  [1, 0, 2, 2, 1], [-1, 0, -1, 0, 0]])
M_V = matrix([[-1, -2, -3, 0, -3], [0, 2, 3, 1, 2], [1, 0, 0, -1, 0],
              [-1, -3, -3, 0, -2], [0, 2, 2, 1, 2]])
M_V_INV = matrix([[2, 2, 5, 2, 3], [0, -1, -1, -1, 0], [0, 1, 0, 0, -1],
                  [2, 2, 4, 2, 3], [-1, -1, -1, 0, 0]])
M_C = matrix([[3, 3, 5, 2, 3], [-3, -3, -7, -3, -4], [0, 0, 1, 0, 0],
              [2, 3, 5, 3, 3], [-3, -4, -7, -3, -3]])
M_C_INV = matrix([[-3, -3, -7, -4, -3], [3, 3, 5, 3, 2], [0, 0, 1, 0, 0],
                  [-4, -3, -7, -3, -3], [3, 2, 5, 3, 3]])
M_AC = matrix([[-701, -612, -1314, -702, -612],
               [1548, 1351, 2898, 1548, 1350],
               [0, 0, 1, 0, 0],
               [-702, -612, -1314, -701, -612],
               [1548, 1350, 2898, 1548, 1351]])
COL_A1 = (-702, 1548, 0, -702, 1548)
COL_A2 = (-612, 1350, 0, -612, 1350)
A_COLUMNS = matrix([[COL_A1[i], COL_A2[i]] for i in range(5)])
LATTICE_U = matrix([[-996, -869], [1145, 999]])
LATTICE_V = matrix([[18955, 16531], [-21731, -18952]])


def conjugation_template(m: int, n: int, p: int) -> IntMatrix:
    """The 5x5 matrix shape taken by conjugating automorphisms of N in the
    z-basis; valid parameters satisfy n p = m^2."""
    return matrix([
        [3 * m, 3 * n, 3 * m + 3 * n - 1, 3 * m - 1, 3 * n],
        [-3 * p, -3 * m, -3 * m - 3 * p - 1, -3 * p, -3 * m - 1],
        [0, 0, 1, 0, 0],
        [3 * m - 1, 3 * n, 3 * m + 3 * n - 1, 3 * m, 3 * n],
        [-3 * p, -3 * m - 1, -3 * m - 3 * p - 1, -3 * p, -3 * m]])


def template_parameters(mat: IntMatrix) -> Optional[tuple[int, int, int]]:
    """Recover (m, n, p) if the matrix fits the conjugation template."""
    if mat[0, 0] % 3 or mat[0, 1] % 3 or mat[1, 0] % 3:
        return None
    m, n, p = mat[0, 0] // 3, mat[0, 1] // 3, -mat[1, 0] // 3
    if conjugation_template(m, n, p) == mat and n * p == m * m:
        return (m, n, p)
    return None


# the ten tabulated conjugation images in the z-basis
UACTION_TABLE = (
    "z[2]",
    "z[2] z[1]^-1 z[5] z[3] z[2]^-1 z[4]^-1 z[2]",
    "z[2]^2 z[3]^-1 z[5]^2 z[3] z[2]^-1 z[4]^-1 z[2]",
    "z[2] z[1]^-1 z[5] z[1] z[2]^-1",
    "z[2]^2 z[3]^-1 z[5]^2",
)
_VZ1 = "z[1]^-1 z[3] z[2]^-1 z[4]^-1 z[2]"
VACTION_TABLE = (
    _VZ1,
    "%s %s z[3]^-1 z[5] z[2] z[3]^-1 z[5] z[4]^-1 z[2]" % (_VZ1, _VZ1),
    "%s %s z[1]^-1 z[2] z[3]^-1 z[5] z[2] z[3]^-1 z[5] z[4]^-1 z[2]" % (_VZ1, _VZ1),
    None,   # conjugate form, built below
    "%s %s z[1]^-1 z[2] z[3]^-1 z[5] z[2] z[3]^-1 z[5]" % (_VZ1, _VZ1),
)


def _vaction_z4() -> Word:
    return conjugate(parse_word("z[3]^-1 z[5] z[2]"), power(parse_word(_VZ1), 2))


def shifted_z():
    """Abelianized conjugation data of the rank-2 free kernel, basis z_i = t^i x t^-(i+1):
    both ambient generators shift z_i to z_{i+1}, the half-twist sends it to -z_{i-1}."""
    return _layer("presentations").IndexedPresentation(
        "zshift", (), ("z",), (), (parse_word("z[0] z[1]^-1"), parse_word("z[0] z[-1]")))


PRINTED_SCHREIER_BASIS = ("a^2", "a b a^2 b^-1 a^-1", "b a b^-1 a^-1",
                          "a b^2 a^-1", "b^2")

# the two basis braids of the 4-strand computation
A4, B4 = "s[3] s[1]^-1", "s[2] s[3] s[1]^-1 s[2]^-1"

G2B4_IMAGES = "g[1] = 1;a\ng[2] = 1;b\ng[3] = x;1\n"  # onto Q8 x| F2
_DELTA_M2 = "s[1]^-1 s[2]^-1 s[1]^-2 s[2]^-1 s[1]^-1"  # Delta^-2 in B_3

# (id, description, `presentations` builder, its args, target, --assign images)
HOM_CHECKS = (
    ("hom-sphere4", "4-strand sphere braid group onto Z^2 x| Z/6", "sphere_braid", (4,),
     "z2-z6", "s[1] = (0, 0);1\ns[2] = (1, 0);1\ns[3] = (0, 0);1\n"),
    ("hom-g2b4", "commutator subgroup onto Q8 x| F2", "gamma2_b4", (), "q8-f2", G2B4_IMAGES),
    *(("hom-affine-c-retract-m%d" % m,
       "retraction of the affine-C presentation onto the braid group", "affine_C", (m,),
       "braid:%d" % m,
       "r[1] = 1\nr[%d] = 1\n" % m + "".join("s[%d] = s[%d]\n" % (i, i) for i in range(1, m)))
      for m in (2, 3, 4)),
    ("hom-punctured-4-2", "4 strands, twice-punctured sphere onto B3 x Z",
     "punctured_sphere", (4, 2), "braid:3-x-z",
     "s[1] = s[1];0\ns[2] = s[2];0\ns[3] = s[1];0\n" + "".join(
         "A[1,%d] = 1;1\nA[2,%d] = %s;-1\n" % (k, k, _DELTA_M2) for k in range(3, 7))),
)


@dataclass(frozen=True)
class VerifyCheck:
    id: str
    description: str
    status: str            # PASS | FAIL
    expected: str
    got: str


# (id, description, thunk) in output order; each thunk returns (expected, got)
REGISTRY: list[tuple[str, str, Callable[[], tuple]]] = []


def _register(cid: str, description: str, thunk: Callable[[], tuple]) -> None:
    REGISTRY.append((cid, description, thunk))


def _layer(name: str):
    """The braidkit module `name`, imported by the check that runs it."""
    return import_module("." + name, __package__)


def _build(builder: str, *args):
    return getattr(_layer("presentations"), builder)(*args)


def _ab(p) -> str:
    return str(_layer("series").abelianization(p))


# ---------------------------------------------------------------------------
# computations behind the checks


def _nested_commutator():
    x = mat_mul(M_U, M_C, M_U_INV)
    x_inv = mat_mul(M_U, M_C_INV, M_U_INV)
    return M_AC, mat_mul(x, M_C, x_inv, M_C_INV)


def _commutator_conjugates():
    """(x, x^-1) for x = t c t^-1, c = M_C or M_C^-1 and t a reduced word of
    length <= 3 in u, v: shortest first, each length in the lexicographic
    order of the letters u, v, u^-1, v^-1.  t^-1 is built beside t from the
    printed inverses, and t M_C t^-1 and t M_C^-1 t^-1 are each other's
    inverses."""
    steps = ((1, M_U, M_U_INV), (2, M_V, M_V_INV), (-1, M_U_INV, M_U), (-2, M_V_INV, M_V))
    words = [(0, identity(5), identity(5))]   # (last letter, t, t^-1)
    for length in range(4):
        for _, t, t_inv in words:
            x, y = mat_mul(t, M_C, t_inv), mat_mul(t, M_C_INV, t_inv)
            yield x, y
            yield y, x
        if length < 3:
            words = [(g, mat_mul(t, m), mat_mul(m_inv, t_inv))
                     for last, t, t_inv in words for g, m, m_inv in steps if g != -last]


def _commutator_columns() -> list[tuple[int, ...]]:
    """The five columns of [M_C, x] - I for each conjugate x, in order."""
    eye = identity(5)
    return [col for x, x_inv in _commutator_conjugates()
            for col in (mat_mul(M_C, x, M_C_INV, x_inv) - eye).transpose().rows]


def _monodromy_fibonacci():
    from . import series
    fib = [0, 1]
    while len(fib) < 15:
        fib.append(fib[-1] + fib[-2])
    return True, all(
        mat_pow(series._M, k) == matrix([[fib[k - 1], -fib[k]], [-fib[k], fib[k + 1]]])
        for k in range(1, 13))


def _rename_rs_generator(g: Gen) -> Gen:
    if g.name == "w":
        return g
    if g.name == "s" and len(g.indices) == 2:
        i, c = g.indices
        if i == 2:
            return Gen("u", (c + 1,))
        if c == 0:
            return Gen("v", (i - 2,))
    return g


def _sphere_kernel(n: int):
    """The Tietze-reduced kernel of B_n(S^2) onto its abelianization Z/2(n-1)."""
    from .reidschreier import rs_finite_cyclic, tietze_eliminate
    return tietze_eliminate(rs_finite_cyclic(
        _build("sphere_braid", n), 2 * (n - 1), Gen("s", (1,)))).presentation


def _rs_reproduction(n: int):
    from .reidschreier import canonical_relator
    target = _build("fullpres", n) if n == 4 else _build("gamma2_b5")
    sub = _sphere_kernel(n)
    renamed_gens = sorted(_rename_rs_generator(g) for g in sub.generators)
    mapping = {g: letter(_rename_rs_generator(g)) for g in sub.generators}
    got_rels = sorted(canonical_relator(substitute(r, mapping)) for r in sub.relators)
    want_rels = sorted(canonical_relator(r) for r in target.relators)
    matches = len(set(got_rels) & set(want_rels))
    text = "gens=%s relators=%d matching=%d"
    return (text % (sorted(target.generators), len(want_rels), len(want_rels)),
            text % (renamed_gens, len(got_rels), matches))


def _hom(builder, args, target: str, images: str):
    """(True, whether `images` define a homomorphism builder(*args) -> target)."""
    from . import hom, models
    model = models.target(target)
    report = hom.check_hom(_build(builder, *args), model, hom.parse_assignment(images, model))
    return True, report.all_trivial


def _hom_g2b4_conjugate():
    from . import hom, models
    qf = models.target("q8-f2")
    conj = qf.eval_word(hom.parse_assignment(G2B4_IMAGES, qf),
                        parse_word("g[1] g[3] g[1]^-1"))
    return str(("y", Word(()))), str(conj)


def _braid_equal(w1: str, w2: str, n: int):
    """(True, whether the two spellings are the same braid on n strands)."""
    return True, _layer("garside").braid_equal(parse_word(w1), parse_word(w2), n)


def _schreier_basis_printed():
    # F(a, b) onto the Klein four-group: cosets are exponent sums mod 2
    from . import presentations, reidschreier
    transversal = [parse_word(t) for t in ("1", "a", "a b", "a b a^-1")]
    basis = reidschreier.rs_coset_table(
        presentations.Presentation("F2", (A, B), ()), (0, 0),
        lambda c, x: (c[0] ^ (x == A), c[1] ^ (x == B)), transversal).dictionary.values()
    return (sorted(str(parse_word(t)) for t in PRINTED_SCHREIER_BASIS),
            sorted(str(w) for w in basis))


def _action_table(images, table):
    from .freesub import express, fold
    graph = fold(Z_BASIS)
    wanted = [_vaction_z4() if t is None else parse_word(t) for t in table]
    return True, all(express(graph, Z_BASIS, substitute(zw, images)) == w
                     for zw, w in zip(Z_BASIS, wanted))


def _commutator_exponent_sums():
    # u(v(u^-1(v^-1(g)))) for g = a, b: the images of v^-1 are substituted first
    uv_a, uv_b = (reduce(substitute, (DISC_V_INV, DISC_U_INV, DISC_V, DISC_U), letter(g))
                  for g in (A, B))
    elt = multiply(power(multiply(uv_a, invert(letter(A))), -3),
                   power(multiply(uv_b, invert(letter(B))), 2),
                   power(letter(B), -2))
    return (0, 0), (exponent_sum(elt, A), exponent_sum(elt, B))


def _z_kernel_basis_rows():
    from . import presentations, reidschreier
    zs = tuple(Gen("z", (i,)) for i in range(1, 6))
    kernel = reidschreier.rs_z_window(presentations.Presentation("N", zs, ()), zs[0], Z_WEIGHTS)
    kb_words = {str(w) for w in kernel.dictionary.values()}
    wanted = {str(parse_word(t)) for t in
              ("z[1]^-1 z[2]", "z[1] z[4]", "z[2] z[1]^-1", "z[4] z[1]")}
    return True, wanted <= kb_words


def _coinvariants(ip) -> str:
    res = _layer("series").windowed_coinvariants(ip, window=4)
    return "%s %s" % (res.invariants, "stable" if res.stable else "unstable")


def _hat_closure(words):
    from . import models
    return models.hat_subgroup(models.q8_semidirect_f2(), words)


# ---------------------------------------------------------------------------
# the registry, in output order

for n in range(3, 9):
    _register("ab-sphere-n%d" % n,
              "abelianization of the %d-strand sphere braid group" % n,
              lambda n=n: ("Z/%d" % (2 * (n - 1)), _ab(_build("sphere_braid", n))))
for m in range(1, 5):
    for n in range(1, 5):
        _register("ab-punctured-m%d-n%d" % (m, n),
                  "abelianization, %d strands on the %d-punctured sphere" % (m, n),
                  lambda m=m, n=n: ("Z^%d" % n if n > 1 else "Z",
                                    _ab(_build("punctured_sphere", m, n))))
_register("snf-18-18", "invariant factors of the 5x2 relation matrix",
          lambda: ("(18, 18)",
                   str(smith_normal_form(A_COLUMNS).invariant_factors())))
_register("coker-rank3-18-18", "cokernel of the relation columns",
          lambda: ("Z^3 x Z/18 x Z/18", str(_layer("series").AbelianInvariants(
              *abelian_invariants([dict(enumerate(c)) for c in (COL_A1, COL_A2)], 5)))))
_register("mat-u-inverse", "printed inverse of the u matrix",
          lambda: (identity(5), mat_mul(M_U, M_U_INV)))
_register("mat-v-inverse", "printed inverse of the v matrix",
          lambda: (identity(5), mat_mul(M_V, M_V_INV)))
_register("mat-commutator", "commutator of the u and v matrices",
          lambda: (M_C, mat_mul(M_U, M_V, M_U_INV, M_V_INV)))
_register("mat-c-inverse", "printed inverse of the commutator matrix",
          lambda: (identity(5), mat_mul(M_C, M_C_INV)))
_register("mat-nested-commutator",
          "commutator of the conjugated commutator with itself",
          _nested_commutator)
_register("lattice-restrict-u", "u matrix restricted to the rank-2 lattice",
          lambda: (LATTICE_U, lattice_restrict(M_U, [COL_A1, COL_A2])))
_register("lattice-restrict-v", "v matrix restricted to the rank-2 lattice",
          lambda: (LATTICE_V, lattice_restrict(M_V, [COL_A1, COL_A2])))
_register("template-conjugates",
          "conjugates of the commutator matrix fit the 5x5 template",
          lambda: (True, all(template_parameters(x) is not None
                             for x, _ in _commutator_conjugates())))
_register("template-commutator-columns",
          "columns of nested commutators minus identity lie in the lattice",
          lambda: (True, None not in solve_in_lattice(A_COLUMNS, _commutator_columns())))
_register("lcs-z2-free-ranks", "lower central ranks, order-2 free product case",
          lambda: ((1, 2, 3, 5, 7), tuple(map(_layer("series").lcs_rank_z2_free, range(2, 7)))))
_register("monodromy-fibonacci", "powers of the trace-1 monodromy matrix",
          _monodromy_fibonacci)
_register("lcs-torus-small", "torus-case ranks at i=2,3",
          lambda: ((0, 3), tuple(map(_layer("series").lcs_rank_torus, (2, 3)))))
for n in (4, 5):
    _register("rs-reproduce-n%d" % n,
              "rewritten commutator-subgroup presentation matches the printed one",
              lambda n=n: _rs_reproduction(n))
for cid, description, *spec in HOM_CHECKS[:2]:  # the g2b4 image checks follow
    _register(cid, description, partial(_hom, *spec))
_register("hom-g2b4-finite-order", "order of the finite image part",
          lambda: (8, len(_layer("models").finite_closure(
              _layer("models").q8(), ["x", "y"]))))
_register("hom-g2b4-conjugate", "image of the conjugated torsion generator",
          _hom_g2b4_conjugate)
for cid, description, *spec in HOM_CHECKS[2:]:
    _register(cid, description, partial(_hom, *spec))
_register("braid-eq-braid-relation", "defining braid relation in B3",
          lambda: _braid_equal("s[1] s[2] s[1]", "s[2] s[1] s[2]", 3))
_register("braid-eq-conjugate", "two spellings of a conjugated generator in B3",
          lambda: _braid_equal("s[1]^2 s[2] s[1]^-3",
                               "s[1] s[2]^-1 s[1] s[2] s[1]^-2", 3))
_register("braid-eq-ab-squared", "two spellings of the squared product in B4",
          lambda: _braid_equal(" ".join((A4, B4) * 2),
                               "s[1]^-1 s[2] s[1]^-1 s[3]^2 s[2] s[1]^-1 s[2]^-1", 4))
_register("braid-perm-a", "underlying permutation of the first basis braid",
          lambda: ((2, 1, 4, 3), _layer("garside").permutation(parse_word(A4), 4)))
_register("braid-perm-b", "underlying permutation of the second basis braid",
          lambda: ((3, 4, 1, 2), _layer("garside").permutation(parse_word(B4), 4)))
_register("schreier-basis-printed",
          "Schreier generators over the printed transversal",
          _schreier_basis_printed)
_register("uaction-table", "all five tabulated u-conjugates",
          lambda: _action_table(DISC_U, UACTION_TABLE))
_register("vaction-table", "all five tabulated v-conjugates",
          lambda: _action_table(DISC_V, VACTION_TABLE))
_register("commutator-exponent-sums",
          "commutator-subgroup membership by exponent sums",
          _commutator_exponent_sums)
_register("z-kernel-basis-rows", "tabulated weighted-kernel basis rows",
          _z_kernel_basis_rows)
for m, inv in ((3, "Z^4"), (4, "Z^2"), (5, "Z")):
    _register("annulus-coinvariants-m%d" % m,
              "abelianized coinvariants of the annular commutator subgroup",
              lambda m=m, inv=inv: (inv + " stable", _coinvariants(_build("gamma2_annulus", m))))
_register("punctured-b3-rank4",
          "abelianized commutator subgroup, 3 strands twice-punctured disc",
          lambda: ("Z^4 stable", _coinvariants(_build("b3_punctured_gamma2_ab"))))
_register("half-twist-z2", "coinvariants of the shifted kernel basis",
          lambda: ("Z/2 stable", _coinvariants(shifted_z())))
_register("perfect-g2b5", "perfectness of the 5-strand commutator subgroup",
          lambda: ("1", _ab(_build("gamma2_b5"))))
_register("perfect-sphere6-kernel",
          "perfectness of the rewritten 6-strand commutator subgroup",
          lambda: ("1", _ab(_sphere_kernel(6))))
_register("rank2-g2b4", "abelianization of the 4-strand commutator subgroup",
          lambda: ("Z^2", _ab(_build("gamma2_b4"))))
_register("hat-full", "twisted-commutator closure under both actions",
          lambda: (8, len(_hat_closure([parse_word("a"), parse_word("b")]))))
_register("hat-centre", "twisted-commutator closure under the commutator",
          lambda: (("-1", "1"), _hat_closure(
              [commutator(parse_word("a"), parse_word("b"))])))


def _run(entries) -> list[VerifyCheck]:
    out = []
    for cid, description, thunk in entries:
        expected, got = thunk()
        out.append(VerifyCheck(cid, description,
                               "PASS" if expected == got else "FAIL",
                               str(expected), str(got)))
    return out


def all_checks() -> list[VerifyCheck]:
    return _run(REGISTRY)


def run_verify(filter_glob: str = "all") -> list[VerifyCheck]:
    """The checks whose ids match filter_glob; only those are computed."""
    if filter_glob == "all":
        return all_checks()
    return _run([e for e in REGISTRY if fnmatch(e[0], filter_glob)])
