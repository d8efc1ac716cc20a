"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single ``CRITERION k: PASS/FAIL`` line.  A criterion
normally requires its ``braidkit verify`` checks to PASS against their
recorded references.  Eight of those references are known to be wrong (the
documented discrepancies in test_verify.py); ``braidkit verify`` keeps
reporting them as FAIL, unpatched.  For those checks a criterion instead
compares the computed value with the established value, citing its source:
the paper's abstract or a derivation written out next to the assertion.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from braidkit.freesub import contains, fold, rank
from braidkit.presentations import Presentation, fullpres, sphere_braid
from braidkit.reidschreier import (canonical_relator, rs_finite_cyclic,
                                   tietze_eliminate)
from braidkit.series import AbelianInvariants
from braidkit.verify import (PRINTED_SCHREIER_BASIS, _rename_rs_generator,
                             run_verify)
from braidkit.words import Gen, commutator, letter, parse_word, substitute


@pytest.fixture(scope="module")
def by_id():
    return {c.id: c for c in run_verify()}


def _criterion(num, desc, failures):
    status = "FAIL" if failures else "PASS"
    print("CRITERION %02d: %s  %s" % (num, status, desc))
    assert not failures, "\n".join(failures)


def _failures(by_id, ids, established=None):
    """Each check in `ids` must PASS against its recorded reference, except
    those keyed in `established`, whose computed value must equal the
    established value given there."""
    established = established or {}
    failures = []
    for cid in ids:
        c = by_id[cid]
        if cid in established:
            if c.got != established[cid]:
                failures.append("%s: established %s, got %s"
                                % (cid, established[cid], c.got))
        elif c.status != "PASS":
            failures.append("%s: expected %s, got %s" % (cid, c.expected, c.got))
    return failures


def _require(by_id, num, desc, ids, established=None):
    _criterion(num, desc, _failures(by_id, ids, established))


def test_criterion_01_sphere_abelianizations(by_id):
    _require(by_id, 1, "abelianization of the n-strand sphere braid groups",
             ["ab-sphere-n%d" % n for n in range(3, 9)])


def test_criterion_02_punctured_abelianizations(by_id):
    # The abstract: "the case m=1 is that of the free group of rank n-1", so
    # one strand on the n-punctured sphere abelianizes to Z^(n-1), not to
    # the recorded Z^n.
    _require(by_id, 2, "abelianization of the punctured-sphere braid groups",
             ["ab-punctured-m%d-n%d" % (m, n)
              for m in range(1, 5) for n in range(1, 5)],
             {"ab-punctured-m1-n%d" % n: str(AbelianInvariants(n - 1, ()))
              for n in range(1, 5)})


def test_criterion_03_smith_normal_form(by_id):
    _require(by_id, 3, "invariant factors (18,18) and the rank-3 cokernel",
             ["snf-18-18", "coker-rank3-18-18"])


def test_criterion_04_matrix_identities(by_id):
    _require(by_id, 4, "inverse/commutator identities of the 5x5 action matrices",
             ["mat-u-inverse", "mat-v-inverse", "mat-commutator",
              "mat-c-inverse", "mat-nested-commutator"])


def test_criterion_05_invariant_lattice(by_id):
    _require(by_id, 5, "restriction of both actions to the rank-2 invariant lattice",
             ["lattice-restrict-u", "lattice-restrict-v"])


def test_criterion_06_conjugate_template(by_id):
    _require(by_id, 6, "structure of conjugated twist matrices and their commutators",
             ["template-conjugates", "template-commutator-columns"])


def test_criterion_07_rank_formula(by_id):
    # alpha_k = (tr M^k - 1)/k need not be an integer (tr M^4 = 7, so
    # alpha_4 = 3/2).  What the rank formula needs integral are the
    # Moebius-weighted increments, computed here with sympy's mobius as an
    # independent oracle, and the ranks R_i, which are their partial sums.
    from sympy import mobius

    from braidkit.series import alpha_k, lcs_rank_z2_free

    failures = _failures(by_id, ["lcs-z2-free-ranks", "monodromy-fibonacci"])
    rank_sum = 0
    for i in range(2, 21):
        inc = sum(Fraction(int(mobius(i // k))) * k * alpha_k(k)
                  for k in range(2, i + 1) if i % k == 0) / i
        if inc.denominator != 1:
            failures.append("increment at i=%d is %s, not an integer" % (i, inc))
        rank_sum += inc
        r = lcs_rank_z2_free(i)    # raises if R_i is not an integer
        if r != rank_sum:
            failures.append("R_%d = %d, but the increments sum to %s" % (i, r, rank_sum))
    _criterion(7, "central-series rank formula and monodromy powers", failures)


def _rewritten_kernel(n):
    """Tietze-reduced Reidemeister-Schreier presentation of the commutator
    subgroup of the n-strand sphere braid group, in the w, u, v names."""
    rs = tietze_eliminate(rs_finite_cyclic(sphere_braid(n), 2 * (n - 1), Gen("s", (1,))))
    p = rs.presentation
    mapping = {g: letter(_rename_rs_generator(g)) for g in p.generators}
    return Presentation("rewritten G2B%d(S2)" % n,
                        tuple(_rename_rs_generator(g) for g in p.generators),
                        tuple(substitute(r, mapping) for r in p.relators))


def _commuting_pairs(p):
    """Generator pairs whose commutator is, up to rotation and inversion, a
    relator of p."""
    rels = {canonical_relator(r) for r in p.relators}
    return {frozenset(xy) for xy in combinations(p.generators, 2)
            if canonical_relator(commutator(*map(letter, xy))) in rels}


def _normal_form(w, commuting):
    """Least word, by length and then letters, reachable from w by rotation,
    inversion, free cancellation and swaps of adjacent letters whose
    generators form a pair in `commuting`.  Each move keeps the normal
    closure of w together with those commutators."""
    start = tuple((g, 1 if s > 0 else -1) for g, s in w.letters() for _ in range(abs(s)))
    seen = {start}
    todo = [start]
    while todo:
        s = todo.pop()
        moves = [s[1:] + s[:1], tuple((g, -e) for g, e in reversed(s))]
        for i in range(len(s) - 1):
            (g, e), (h, f) = s[i], s[i + 1]
            if g == h and e == -f:
                moves.append(s[:i] + s[i + 2:])
            elif frozenset((g, h)) in commuting:
                moves.append(s[:i] + (s[i + 1], s[i]) + s[i + 2:])
        for t in moves:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return min(seen, key=lambda s: (len(s), s))


def test_criterion_08_rs_reproduction():
    # Reidemeister-Schreier plus Tietze fixes the group, not the spelling of
    # each relator, and the verify checks compare spellings (against the
    # trimmed gamma2_b5() for n=5).  Compared here with fullpres(n), the
    # form coset rewriting produces: every normalising move applies a
    # commutator relator of both presentations, so equal sets of normal
    # forms prove that the two normal closures are equal.
    failures = []
    for n in (4, 5):
        got, want = _rewritten_kernel(n), fullpres(n)
        if set(got.generators) != set(want.generators):
            failures.append("n=%d: generators %s vs %s"
                            % (n, sorted(got.generators), sorted(want.generators)))
            continue
        shared = _commuting_pairs(got) & _commuting_pairs(want)
        got_nf = {_normal_form(r, shared) for r in got.relators} - {()}
        want_nf = {_normal_form(r, shared) for r in want.relators} - {()}
        if got_nf != want_nf:
            failures.append("n=%d: %d normal forms only in the rewritten presentation, "
                            "%d only in fullpres(%d)"
                            % (n, len(got_nf - want_nf), len(want_nf - got_nf), n))
    _criterion(8, "rewritten kernel presentations match the reference ones", failures)


def test_criterion_09_homomorphisms(by_id):
    _require(by_id, 9, "relator-trivial homomorphisms and retractions",
             ["hom-sphere4", "hom-g2b4", "hom-g2b4-finite-order",
              "hom-g2b4-conjugate", "hom-affine-c-retract-m2",
              "hom-affine-c-retract-m3", "hom-affine-c-retract-m4",
              "hom-punctured-4-2"])


def test_criterion_10_garside(by_id):
    _require(by_id, 10, "braid word equalities and underlying permutations",
             ["braid-eq-braid-relation", "braid-eq-conjugate",
              "braid-eq-ab-squared", "braid-perm-a", "braid-perm-b"])


# Schreier generators t x rep(tx)^-1 of the kernel of F(a, b) -> Klein four
# (a -> p, b -> q) over the transversal 1, a, a b, a b a^-1 (cosets e, p,
# pq, q), trivial ones dropped:
#   t = 1:        x = b gives b (a b a^-1)^-1       = b a b^-1 a^-1
#   t = a:        x = a gives a a                   = a^2
#   t = a b:      x = a gives a b a (a b a^-1)^-1   = a b a^2 b^-1 a^-1
#                 x = b gives a b b a^-1            = a b^2 a^-1
#   t = a b a^-1: x = b gives a b a^-1 b
# The printed basis has b^2 in place of the last; a b a^-1 b equals
# (b a b^-1 a^-1)^-1 b^2, a Nielsen combination of the printed words.
MECHANICAL_SCHREIER_BASIS = ("b a b^-1 a^-1", "a^2", "a b a^2 b^-1 a^-1",
                             "a b^2 a^-1", "a b a^-1 b")


def test_criterion_11_subgroup_rewriting(by_id):
    mechanical = [parse_word(t) for t in MECHANICAL_SCHREIER_BASIS]
    printed = [parse_word(t) for t in PRINTED_SCHREIER_BASIS]
    failures = _failures(
        by_id,
        ["schreier-basis-printed", "uaction-table", "vaction-table",
         "commutator-exponent-sums"],
        {"schreier-basis-printed": str(sorted(str(w) for w in mechanical))})
    # both bases generate the index-4 subgroup, free of rank 4(2-1)+1 = 5
    for name, basis, other in (("mechanical", mechanical, printed),
                               ("printed", printed, mechanical)):
        graph = fold(basis)
        if rank(graph) != 5:
            failures.append("%s basis has rank %d, not 5" % (name, rank(graph)))
        failures.extend("%s not in the subgroup of the %s basis" % (w, name)
                        for w in other if not contains(graph, w))
    _criterion(11, "Schreier basis, action tables and commutator exponent sums",
               failures)


def test_criterion_12_windowed_invariants(by_id):
    # The abstract: for n >= 2 and m >= 5 the derived series of
    # B_m(S^2 minus n points) is constant from Gamma_2 on, so Gamma_2 of the
    # five-strand annular group (n = 2) is perfect and its coinvariants are
    # trivial, not the recorded Z.
    _require(by_id, 12, "windowed coinvariants of the annular and punctured kernels",
             ["annulus-coinvariants-m3", "annulus-coinvariants-m4",
              "annulus-coinvariants-m5", "punctured-b3-rank4", "half-twist-z2"],
             {"annulus-coinvariants-m5": "1 stable"})


def test_criterion_13_perfectness(by_id):
    _require(by_id, 13, "perfect commutator subgroups for five and six strands",
             ["perfect-g2b5", "perfect-sphere6-kernel", "rank2-g2b4"])


def test_criterion_14_hat_closures(by_id):
    _require(by_id, 14, "twisted-difference closures inside the quaternion group",
             ["hat-full", "hat-centre"])


def test_criterion_15_property_suites():
    """Seeded spot runs of each randomized property family."""
    failures = []
    rng = random.Random(0)

    # word-algebra laws
    from braidkit.words import Gen, free_reduce, invert, multiply

    gens = [Gen("a"), Gen("b"), Gen("c")]

    def rword():
        return free_reduce([(rng.choice(gens), rng.choice([-2, -1, 1, 2]))
                            for _ in range(rng.randint(0, 6))])

    for _ in range(50):
        u, v = rword(), rword()
        if multiply(multiply(u, v), invert(v)) != u:
            failures.append("word law failed: %s, %s" % (u, v))

    # SNF with |det| oracle
    from braidkit.intlin import mat_mul, matrix, smith_normal_form
    from oracles import det

    for _ in range(25):
        a = matrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        r = smith_normal_form(a)
        if mat_mul(r.p, a, r.q) != r.d:
            failures.append("PAQ != D for %s" % (a,))
        if abs(det(a)) != abs(r.d.rows[0][0] * r.d.rows[1][1] * r.d.rows[2][2]):
            failures.append("|det| changed for %s" % (a,))

    # folding round trips
    from braidkit.freesub import contains, fold

    for _ in range(15):
        basis = [rword() for _ in range(3)]
        basis = [w for w in basis if w.runs]
        if not basis:
            continue
        g = fold(basis)
        prod = multiply(rng.choice(basis), invert(rng.choice(basis)))
        if not contains(g, prod):
            failures.append("folding rejected a member: %s" % (prod,))

    # Artin representation well-definedness under braid equality
    from braidkit.garside import braid_equal
    from braidkit.words import parse_word
    from oracles import action_of_word, artin_action, expand

    n = 4
    acts = {Gen("s", (i,)): artin_action(i, n) for i in range(1, n)}
    rels = [parse_word("s[1] s[2] s[1] s[2]^-1 s[1]^-1 s[2]^-1"),
            parse_word("s[2] s[3] s[2] s[3]^-1 s[2]^-1 s[3]^-1"),
            parse_word("s[1] s[3] s[1]^-1 s[3]^-1")]

    def rbraid():
        return free_reduce([(Gen("s", (rng.randint(1, n - 1),)),
                             rng.choice([-1, 1])) for _ in range(rng.randint(0, 6))])

    for _ in range(15):
        w = rbraid()
        w2 = multiply(w, rng.choice(rels))
        if not braid_equal(w, w2, n):
            failures.append("braid_equal rejected relator insertion at %s" % (w,))
        elif action_of_word(acts, w).images != action_of_word(acts, w2).images:
            failures.append("Artin action differs on equal words at %s" % (w,))

    # RS soundness: expanded kernel relators evaluate trivially under a
    # verified homomorphism of the ambient group
    from braidkit.models import z2z6_model
    from braidkit.presentations import sphere_braid
    from braidkit.reidschreier import rs_finite_cyclic

    model = z2z6_model()
    assign = {Gen("s", (1,)): ((0, 0), 1), Gen("s", (2,)): ((1, 0), 1),
              Gen("s", (3,)): ((0, 0), 1)}
    rs = rs_finite_cyclic(sphere_braid(4), 6, Gen("s", (1,)))
    for r in rs.presentation.relators:
        if model.eval_word(assign, expand(rs, r)) != model.identity():
            failures.append("expanded relator not in the kernel: %s" % (r,))

    _criterion(15, "randomized property families (seed 0)", failures)
