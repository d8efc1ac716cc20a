"""Named verification suite.

Each check recomputes one published value from scratch and compares exactly.
Reference matrices and words are frozen here as printed in the source
material for the 4-strand disc braid group's derived-series computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch

from . import actions, garside, hom, models, series
from .freesub import express, schreier_basis, z_kernel_basis
from .intlin import (identity, inv_unimodular, mat_mul, mat_pow, matrix,
                     smith_normal_form, _solve_in_lattice)
from .presentations import (affine_C, b3_punctured_gamma2_ab, fullpres,
                            gamma2_annulus, gamma2_b4, gamma2_b5,
                            punctured_sphere, sphere_braid)
from .reidschreier import (canonical_relator, rs_finite_cyclic,
                           tietze_eliminate)
from .words import Gen, Word, exponent_sum, multiply, invert, letter, parse_word, power

# ---------------------------------------------------------------------------
# frozen reference data

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
LATTICE_U = matrix([[-996, -869], [1145, 999]])
LATTICE_V = matrix([[18955, 16531], [-21731, -18952]])

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
    a2 = power(parse_word(_VZ1), 2)
    mid = parse_word("z[3]^-1 z[5] z[2]")
    return multiply(a2, mid, invert(a2))


PRINTED_SCHREIER_BASIS = ("a^2", "a b a^2 b^-1 a^-1", "b a b^-1 a^-1",
                          "a b^2 a^-1", "b^2")


@dataclass(frozen=True)
class VerifyCheck:
    id: str
    description: str
    status: str            # PASS | FAIL | SKIPPED
    expected: str
    got: str


def _check(cid: str, description: str, expected, got) -> VerifyCheck:
    ok = expected == got
    return VerifyCheck(cid, description, "PASS" if ok else "FAIL",
                       str(expected), str(got))


def _inv(ab: series.AbelianInvariants) -> str:
    return str(ab)


# ---------------------------------------------------------------------------
# individual checks

def _abelianization_checks() -> list[VerifyCheck]:
    out = []
    for n in range(3, 9):
        ab = series.abelianization(sphere_braid(n))
        out.append(_check("ab-sphere-n%d" % n,
                          "abelianization of the %d-strand sphere braid group" % n,
                          "Z/%d" % (2 * (n - 1)), _inv(ab)))
    for m in range(1, 5):
        for n in range(1, 5):
            ab = series.abelianization(punctured_sphere(m, n))
            expected = "Z^%d" % n if n > 1 else "Z"
            out.append(_check("ab-punctured-m%d-n%d" % (m, n),
                              "abelianization, %d strands on the %d-punctured sphere" % (m, n),
                              expected, _inv(ab)))
    return out


def _snf_checks() -> list[VerifyCheck]:
    a = matrix([[COL_A1[i], COL_A2[i]] for i in range(5)])
    snf = smith_normal_form(a)
    out = [_check("snf-18-18", "invariant factors of the 5x2 relation matrix",
                  "(18, 18)", str(snf.invariant_factors()))]
    inv = series._invariants([COL_A1, COL_A2], 5)
    out.append(_check("coker-rank3-18-18", "cokernel of the relation columns",
                      "Z^3 x Z/18 x Z/18", _inv(inv)))
    return out


def _matrix_identity_checks() -> list[VerifyCheck]:
    i5 = identity(5)
    out = [
        _check("mat-u-inverse", "printed inverse of the u matrix",
               i5, mat_mul(M_U, M_U_INV)),
        _check("mat-v-inverse", "printed inverse of the v matrix",
               i5, mat_mul(M_V, M_V_INV)),
        _check("mat-commutator", "commutator of the u and v matrices",
               M_C, mat_mul(M_U, M_V, M_U_INV, M_V_INV)),
        _check("mat-c-inverse", "printed inverse of the commutator matrix",
               i5, mat_mul(M_C, M_C_INV)),
    ]
    x = mat_mul(M_U, M_C, M_U_INV)
    out.append(_check("mat-nested-commutator",
                      "commutator of the conjugated commutator with itself",
                      M_AC, mat_mul(x, M_C, inv_unimodular(x), M_C_INV)))
    return out


def _lattice_checks() -> list[VerifyCheck]:
    from .intlin import lattice_restrict
    basis = [COL_A1, COL_A2]
    return [
        _check("lattice-restrict-u", "u matrix restricted to the rank-2 lattice",
               LATTICE_U, lattice_restrict(M_U, basis)),
        _check("lattice-restrict-v", "v matrix restricted to the rank-2 lattice",
               LATTICE_V, lattice_restrict(M_V, basis)),
    ]


def _template_words(max_len: int = 3):
    mats = {1: M_U, 2: M_V, -1: M_U_INV, -2: M_V_INV}
    seqs = [()]
    for _ in range(max_len):
        seqs.extend([s + (g,) for s in list(seqs) if len(s) == _
                     for g in (1, 2, -1, -2)])
    # build products, skipping immediate backtracks
    out = []
    for s in seqs:
        if any(s[i] == -s[i + 1] for i in range(len(s) - 1)):
            continue
        m = identity(5)
        for g in s:
            m = mat_mul(m, mats[g])
        out.append(m)
    return out


def _template_checks() -> list[VerifyCheck]:
    basis = matrix([[COL_A1[i], COL_A2[i]] for i in range(5)])
    all_template = True
    all_lattice = True
    for t in _template_words(3):
        t_inv = inv_unimodular(t)
        for c in (M_C, M_C_INV):
            x = mat_mul(t, c, t_inv)
            if actions.template_parameters(x) is None:
                all_template = False
            y = mat_mul(M_C, x, M_C_INV, inv_unimodular(x))
            diff = y - identity(5)
            for j in range(5):
                col = diff.column(j)
                if any(col) and _solve_in_lattice(basis, col) is None:
                    all_lattice = False
    return [
        _check("template-conjugates",
               "conjugates of the commutator matrix fit the 5x5 template",
               True, all_template),
        _check("template-commutator-columns",
               "columns of nested commutators minus identity lie in the lattice",
               True, all_lattice),
    ]


def _rank_checks() -> list[VerifyCheck]:
    ranks = tuple(series.lcs_rank_z2_free(i).rank for i in range(2, 7))
    out = [_check("lcs-z2-free-ranks", "lower central ranks, order-2 free product case",
                  (1, 2, 3, 5, 7), ranks)]
    fib = [0, 1]
    while len(fib) < 15:
        fib.append(fib[-1] + fib[-2])
    ok = True
    m = series._M
    for k in range(1, 13):
        expect = matrix([[fib[k - 1], -fib[k]], [-fib[k], fib[k + 1]]])
        if mat_pow(m, k) != expect:
            ok = False
    out.append(_check("monodromy-fibonacci", "powers of the trace-1 monodromy matrix",
                      True, ok))
    tor = tuple(series.lcs_rank_torus(i).rank for i in (2, 3))
    out.append(_check("lcs-torus-small", "torus-case ranks at i=2,3", (0, 3), tor))
    return out


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


def _rs_reproduction(n: int) -> VerifyCheck:
    target = fullpres(n) if n == 4 else gamma2_b5()
    rs = tietze_eliminate(rs_finite_cyclic(sphere_braid(n), 2 * (n - 1), Gen("s", (1,))))
    sub = rs.presentation
    renamed_gens = sorted(_rename_rs_generator(g) for g in sub.generators)
    mapping = {g: letter(_rename_rs_generator(g)) for g in sub.generators}
    from .words import substitute
    got_rels = sorted(canonical_relator(substitute(r, mapping)) for r in sub.relators)
    want_rels = sorted(canonical_relator(r) for r in target.relators)
    matches = len(set(got_rels) & set(want_rels))
    expected = "gens=%s relators=%d matching=%d" % (
        sorted(target.generators), len(want_rels), len(want_rels))
    got = "gens=%s relators=%d matching=%d" % (
        renamed_gens, len(got_rels), matches)
    return _check("rs-reproduce-n%d" % n,
                  "rewritten commutator-subgroup presentation matches the printed one",
                  expected, got)


def _hom_checks() -> list[VerifyCheck]:
    out = []
    zmodel = models.z2z6_model()
    assign = {Gen("s", (1,)): ((0, 0), 1), Gen("s", (2,)): ((1, 0), 1),
              Gen("s", (3,)): ((0, 0), 1)}
    rep = hom.check_hom(sphere_braid(4), zmodel, assign)
    out.append(_check("hom-sphere4", "4-strand sphere braid group onto Z^2 x| Z/6",
                      True, rep.all_trivial))

    qf = models.q8_semidirect_f2()
    a, b = Gen("a"), Gen("b")
    qassign = {Gen("g", (1,)): ("1", letter(a)),
               Gen("g", (2,)): ("1", letter(b)),
               Gen("g", (3,)): ("x", Word(()))}
    qrep = hom.check_hom(gamma2_b4(), qf, qassign)
    out.append(_check("hom-g2b4", "commutator subgroup onto Q8 x| F2",
                      True, qrep.all_trivial))
    table = models.q8()
    out.append(_check("hom-g2b4-finite-order", "order of the finite image part",
                      8, hom.image_order(table, ["x", "y"])))
    conj = qf.eval_word(qassign, parse_word("g[1] g[3] g[1]^-1"))
    out.append(_check("hom-g2b4-conjugate", "image of the conjugated torsion generator",
                      str(("y", Word(()))), str(conj)))

    for m in (2, 3, 4):
        bm = models.GarsideBraidGroup(m)
        cassign = {Gen("r", (1,)): bm.identity(), Gen("r", (m,)): bm.identity()}
        for i in range(1, m):
            cassign[Gen("s", (i,))] = bm.from_word(letter(Gen("s", (i,))))
        crep = hom.check_hom(affine_C(m), bm, cassign)
        out.append(_check("hom-affine-c-retract-m%d" % m,
                          "retraction of the affine-C presentation onto the braid group",
                          True, crep.all_trivial))

    b3z = models.DirectProduct((models.GarsideBraidGroup(3), models.CyclicZ(0)))
    b3 = models.GarsideBraidGroup(3)
    p = punctured_sphere(4, 2)
    delta_m2 = b3.from_word(power(parse_word("s[1] s[2] s[1]"), -2))
    passign = {}
    for g in p.generators:
        if g.name == "s":
            i = g.indices[0]
            img = b3.from_word(letter(Gen("s", (1 if i in (1, 3) else 2,))))
            passign[g] = (img, 0)
        else:
            if g.indices[0] == 1:
                passign[g] = (b3.identity(), 1)
            else:
                passign[g] = (delta_m2, -1)
    prep = hom.check_hom(p, b3z, passign)
    out.append(_check("hom-punctured-4-2", "4 strands, twice-punctured sphere onto B3 x Z",
                      True, prep.all_trivial))
    return out


def _garside_checks() -> list[VerifyCheck]:
    eq = garside.braid_equal
    a4 = parse_word("s[3] s[1]^-1")
    b4 = parse_word("s[2] s[3] s[1]^-1 s[2]^-1")
    checks = [
        _check("braid-eq-braid-relation", "defining braid relation in B3", True,
               eq(parse_word("s[1] s[2] s[1]"), parse_word("s[2] s[1] s[2]"), 3)),
        _check("braid-eq-conjugate", "two spellings of a conjugated generator in B3",
               True,
               eq(parse_word("s[1]^2 s[2] s[1]^-3"),
                  parse_word("s[1] s[2]^-1 s[1] s[2] s[1]^-2"), 3)),
        _check("braid-eq-ab-squared", "two spellings of the squared product in B4",
               True,
               eq(power(multiply(a4, b4), 2),
                  parse_word("s[1]^-1 s[2] s[1]^-1 s[3]^2 s[2] s[1]^-1 s[2]^-1"), 4)),
        _check("braid-perm-a", "underlying permutation of the first basis braid",
               (2, 1, 4, 3), garside.permutation(a4, 4)),
        _check("braid-perm-b", "underlying permutation of the second basis braid",
               (3, 4, 1, 2), garside.permutation(b4, 4)),
    ]
    return checks


def _subgroup_checks() -> list[VerifyCheck]:
    out = []
    a, b = Gen("a"), Gen("b")
    table = models.FiniteTable(
        ("e", "p", "q", "pq"),
        (("e", "p", "q", "pq"), ("p", "e", "pq", "q"),
         ("q", "pq", "e", "p"), ("pq", "q", "p", "e")))
    transversal = [parse_word(t) for t in ("1", "a", "a b", "a b a^-1")]
    basis = schreier_basis([a, b], table, {a: "p", b: "q"}, transversal)
    got = tuple(str(w) for w in basis)
    expected = tuple(str(parse_word(t)) for t in PRINTED_SCHREIER_BASIS)
    out.append(_check("schreier-basis-printed",
                      "Schreier generators over the printed transversal",
                      sorted(expected), sorted(got)))

    graph = actions.n_graph()
    zwords = actions.z_basis_words()
    u, v = actions.disc_u(), actions.disc_v()
    ok_u = ok_v = True
    for i, zw in enumerate(zwords):
        img = express(graph, zwords, u.apply(zw))
        if img != parse_word(UACTION_TABLE[i]):
            ok_u = False
        vw = express(graph, zwords, v.apply(zw))
        want = _vaction_z4() if VACTION_TABLE[i] is None else parse_word(VACTION_TABLE[i])
        if vw != want:
            ok_v = False
    out.append(_check("uaction-table", "all five tabulated u-conjugates", True, ok_u))
    out.append(_check("vaction-table", "all five tabulated v-conjugates", True, ok_v))

    uv = models.FreeAutomorphism(
        {a: u.apply(v.apply(u.inverse().apply(v.inverse().apply(letter(a))))),
         b: u.apply(v.apply(u.inverse().apply(v.inverse().apply(letter(b)))))})
    elt = multiply(power(multiply(uv.apply(letter(a)), invert(letter(a))), -3),
                   power(multiply(uv.apply(letter(b)), invert(letter(b))), 2),
                   power(letter(b), -2))
    sums = (exponent_sum(elt, a), exponent_sum(elt, b))
    out.append(_check("commutator-exponent-sums",
                      "commutator-subgroup membership by exponent sums",
                      (0, 0), sums))

    kb = z_kernel_basis([Gen("z", (i,)) for i in range(1, 6)],
                        actions.z_weights(), Gen("z", (1,)), 2)
    kb_words = {str(w) for (_i, _g, w) in kb}
    wanted = {str(parse_word(t)) for t in
              ("z[1]^-1 z[2]", "z[1] z[4]", "z[2] z[1]^-1", "z[4] z[1]")}
    out.append(_check("z-kernel-basis-rows", "tabulated weighted-kernel basis rows",
                      True, wanted <= kb_words))
    return out


def _windowed_checks() -> list[VerifyCheck]:
    out = []
    expect = {3: "Z^4", 4: "Z^2", 5: "Z"}
    for m in (3, 4, 5):
        res = series.windowed_coinvariants(gamma2_annulus(m), window=4,
                                           identify=())
        out.append(_check("annulus-coinvariants-m%d" % m,
                          "abelianized coinvariants of the annular commutator subgroup",
                          "%s stable" % expect[m],
                          "%s %s" % (res.invariants, "stable" if res.stable else "unstable")))
    res = series.windowed_coinvariants(b3_punctured_gamma2_ab(), window=4)
    out.append(_check("punctured-b3-rank4",
                      "abelianized commutator subgroup, 3 strands twice-punctured disc",
                      "Z^4 stable",
                      "%s %s" % (res.invariants, "stable" if res.stable else "unstable")))
    res = series.windowed_coinvariants(series.shifted_z_family_system(), window=4,
                                       identify=())
    out.append(_check("half-twist-z2", "coinvariants of the shifted kernel basis",
                      "Z/2 stable",
                      "%s %s" % (res.invariants, "stable" if res.stable else "unstable")))
    return out


def _perfectness_checks() -> list[VerifyCheck]:
    out = [_check("perfect-g2b5", "perfectness of the 5-strand commutator subgroup",
                  "1", _inv(series.abelianization(gamma2_b5())))]
    rs = tietze_eliminate(rs_finite_cyclic(sphere_braid(6), 10, Gen("s", (1,))))
    out.append(_check("perfect-sphere6-kernel",
                      "perfectness of the rewritten 6-strand commutator subgroup",
                      "1", _inv(series.abelianization(rs.presentation))))
    out.append(_check("rank2-g2b4", "abelianization of the 4-strand commutator subgroup",
                      "Z^2", _inv(series.abelianization(gamma2_b4()))))
    return out


def _hat_checks() -> list[VerifyCheck]:
    table = models.q8()
    acts = {Gen("a"): models.automorphism_from_images(table, {"x": "y", "y": "xy"}),
            Gen("b"): models.automorphism_from_images(
                table, {"x": table.mul("y", "x"), "y": "x"})}
    a, b = letter(Gen("a")), letter(Gen("b"))
    full = series.hat_subgroup(table, acts, [a, b])
    out = [_check("hat-full", "twisted-commutator closure under both actions",
                  8, len(full))]
    comm = multiply(a, b, invert(a), invert(b))
    centre = series.hat_subgroup(table, acts, [comm])
    out.append(_check("hat-centre", "twisted-commutator closure under the commutator",
                      ("-1", "1"), centre))
    return out


# ---------------------------------------------------------------------------

def all_checks() -> list[VerifyCheck]:
    out = []
    out.extend(_abelianization_checks())
    out.extend(_snf_checks())
    out.extend(_matrix_identity_checks())
    out.extend(_lattice_checks())
    out.extend(_template_checks())
    out.extend(_rank_checks())
    out.append(_rs_reproduction(4))
    out.append(_rs_reproduction(5))
    out.extend(_hom_checks())
    out.extend(_garside_checks())
    out.extend(_subgroup_checks())
    out.extend(_windowed_checks())
    out.extend(_perfectness_checks())
    out.extend(_hat_checks())
    return out


def run_verify(filter_glob: str = "all") -> list[VerifyCheck]:
    checks = all_checks()
    if filter_glob in ("", "all", "*"):
        return checks
    return [c for c in checks if fnmatch(c.id, filter_glob)]
