"""Reidemeister-Schreier rewriting and the limited Tietze eliminator."""

import math
import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import cli_snapshot
from braidkit import cli
from braidkit.freesub import fold, rank
from braidkit.garside import braid_equal
from braidkit import presentations, reidschreier
from braidkit.intlin import matrix, smith_normal_form
from braidkit.models import q8
from braidkit.presentations import (
    IndexedPresentation,
    Presentation,
    affine_A,
    affine_C,
    artin_braid,
    b22_two_generator,
    fullpres,
    gamma2_b4,
    gamma2_b5,
    gamma2_b6plus,
    kent_peifer,
    parse_presentation,
    punctured_sphere,
    sphere_braid,
)
from braidkit.reidschreier import (
    canonical_relator,
    rs_coset_table,
    rs_finite_cyclic,
    rs_z_window,
    tietze_eliminate,
)
from braidkit.series import abelianization
from braidkit.words import (IDENTITY, Gen, exponent_vector, free_reduce, invert,
                            letter, multiply, parse_word, power, substitute)
from oracles import (canonical_relator_all_rotations, expand, klein_four,
                     pure_sphere_kernel, strand_permutation_act)

S1 = Gen("s", (1,))


def _sweep_elimination(r):
    if len(r.runs) != 2:
        if len(r.runs) == 1 and abs(r.runs[0][1]) == 1:
            return r.runs[0][0], IDENTITY
        return None
    (g1, e1), (g2, e2) = r.runs
    if abs(e1) == 1:
        return g1, free_reduce([(g2, -e2 * e1)])
    if abs(e2) == 1:
        return g2, free_reduce([(g1, -e1 * e2)])
    return None


def sweep_tietze(p):
    """The former finite eliminator, kept as the slow oracle: every round
    re-sorts and re-canonicalizes every relator and rewrites all of them."""
    gens = list(p.generators)
    relators = list(p.relators)
    while True:
        seen = set()
        cleaned = []
        for r in sorted(relators, key=lambda w: (len(w), canonical_relator(w))):
            key = canonical_relator(r)
            if not key or key in seen:
                continue
            seen.add(key)
            cleaned.append(r)
        relators = cleaned
        found = None
        for r in relators:
            found = _sweep_elimination(r)
            if found:
                break
        if not found:
            break
        g, image = found
        relators = [substitute(r, {g: image}) for r in relators]
        gens.remove(g)
    return Presentation(p.name, tuple(gens), tuple(relators))


def former_finite_rewrite(word, start, t, weights, modulus):
    """The former rewrite closure of rs_finite_cyclic, kept as the slow
    oracle: t and the other generators take separate branches, and each
    wrap is worked out from the coset before and after the letter."""
    w_gen = Gen("w")
    runs = []
    c = start
    for x, sign in word.letters():
        if x == t:
            if sign > 0:
                if c == modulus - 1:
                    runs.append((w_gen, 1))
                c = (c + 1) % modulus
            else:
                if c == 0:
                    runs.append((w_gen, -1))
                c = (c - 1) % modulus
            continue
        omega = weights[x]
        if sign > 0:
            q = (c + omega) // modulus
            runs.append((Gen(x.name, x.indices + (c,)), 1))
            if q:
                runs.append((w_gen, q))
            c = (c + omega) % modulus
        else:
            c2 = (c - omega) % modulus
            q = (c2 + omega - c) // modulus
            if q:
                runs.append((w_gen, -q))
            runs.append((Gen(x.name, x.indices + (c2,)), -1))
            c = c2
    return free_reduce(runs)


def former_z_rewrite(word, start, t, weights, fam_name):
    """The former rewrite closure of rs_z_window, kept as the slow oracle."""
    runs = []
    c = start
    for x, sign in word.letters():
        if x == t:
            c += sign
            continue
        if sign > 0:
            runs.append((Gen(fam_name[x], (c,)), 1))
            c += weights[x]
        else:
            c -= weights[x]
            runs.append((Gen(fam_name[x], (c,)), -1))
    return free_reduce(runs)


def _finite_name(x, c):
    return Gen(x.name, x.indices + (c,))


_T, _X, _Y = Gen("t"), Gen("x"), Gen("y", (2,))
_FAM = {_X: "x", _Y: "y2"}


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from((_T, _X, _Y)),
                          st.integers(-3, 3).filter(bool)), max_size=12)
       .map(free_reduce),
       st.integers(0, 8), st.integers(-4, 4), st.integers(-9, 9),
       st.integers(-9, 9))
def test_rewrite_matches_the_former_closures(word, modulus, start, wx, wy):
    # any word, start coset and weights with weight(t) = 1, moduli 0..8
    weights = {_T: 1, _X: wx, _Y: wy}
    if modulus:
        start %= modulus
        moves = reidschreier._weight_moves(_T, weights, modulus, _finite_name)
        got = reidschreier._rewrite(word, start, moves)[0]
        assert got == former_finite_rewrite(word, start, _T, weights, modulus)
    else:
        moves = reidschreier._weight_moves(_T, weights, 0,
                                           lambda x, c: Gen(_FAM[x], (c,)))
        got = reidschreier._rewrite(word, start, moves)[0]
        assert got == former_z_rewrite(word, start, _T, weights, _FAM)


def test_rs_relators_are_the_former_rewrites():
    for p, t, modulus, weights in (
            (sphere_braid(5), S1, 8, None), (artin_braid(4), S1, 3, None),
            (punctured_sphere(2, 2), S1, 4, None),
            (parse_presentation("group q\ngens: a b\nrel: a^6\nrel: b a^-2\n"),
             Gen("a"), 6, {Gen("a"): 1, Gen("b"): 2})):
        weights = weights or {g: 1 for g in p.generators}
        rewrites = (former_finite_rewrite(r, k, t, weights, modulus)
                    for r in p.relators for k in range(modulus))
        assert rs_finite_cyclic(p, modulus, t, weights).presentation.relators \
            == tuple(w for w in rewrites if w), p.name
    for p, t in ((affine_A(3), Gen("s", (0,))), (kent_peifer(4), Gen("t")),
                 (artin_braid(5), S1)):
        fam = {x: x.name + "_".join(str(i) for i in x.indices)
               for x in p.generators if x != t}
        weights = {g: 1 for g in p.generators}
        assert rs_z_window(p, t).presentation.relator_families == tuple(
            former_z_rewrite(r, 0, t, weights, fam) for r in p.relators), p.name


def _oracle_inputs():
    """Finite-cyclic kernels of the sphere, Artin and punctured braid groups
    at several moduli and transversals, the raw coset-table kernel P_4(S^2)
    (49 generators, 96 relators) and the built-in finite presentations."""
    for n in range(3, 10):
        yield rs_finite_cyclic(sphere_braid(n), 2 * (n - 1), S1).presentation
    for n, moduli in ((3, (2, 3, 6)), (4, (2, 3, 5)), (5, (2, 4))):
        p = artin_braid(n)
        for m in moduli:
            for t in (S1, Gen("s", (n - 1,))):
                yield rs_finite_cyclic(p, m, t).presentation
    for (m, n), moduli in (((2, 2), (2, 4)), ((3, 2), (3, 6)), ((2, 3), (5,))):
        p = punctured_sphere(m, n)
        for modulus in moduli:
            for t in (S1, p.generators[0]):
                yield rs_finite_cyclic(p, modulus, t).presentation
    yield pure_sphere_kernel(4).presentation
    yield from (sphere_braid(5), artin_braid(5), punctured_sphere(3, 2),
                b22_two_generator(), gamma2_b4(), gamma2_b5(),
                gamma2_b6plus(6), fullpres(4))


def test_canonical_relator_rotation_and_inversion_invariant():
    w = parse_word("a b a^-1 c")
    for other in ("b a^-1 c a", "c^-1 a b^-1 a^-1", "a^-1 c a b"):
        assert canonical_relator(parse_word(other)) == canonical_relator(w)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from([Gen("a"), Gen("b")]),
                          st.integers(-2, 2).filter(bool)), max_size=6)
       .map(free_reduce))
def test_canonical_relator_fixed_point(w):
    # canonical form of the canonical form is itself
    c = canonical_relator(w)
    rebuilt = free_reduce([(Gen(n, i), s) for n, i, s in c])
    assert canonical_relator(rebuilt) == c


_KEY_ALPHABET = (Gen("a"), Gen("b"), Gen("a", (1,)), Gen("a", (-1,)),
                 Gen("B", (2, 3)), Gen("B", (2,)))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(_KEY_ALPHABET),
                          st.integers(-3, 3).filter(bool)), max_size=12)
       .map(free_reduce), st.integers(0, 3))
def test_canonical_relator_matches_the_all_rotations_oracle(w, k):
    # a power of w repeats its least letter, so several rotations tie there
    for u in (w, power(w, k), multiply(invert(w), letter(S1), w)):
        assert canonical_relator(u) == canonical_relator_all_rotations(u)


def test_canonical_relator_matches_the_oracle_on_sphere_kernels():
    for n in range(4, 9):
        kernel = rs_finite_cyclic(sphere_braid(n), 2 * (n - 1), S1).presentation
        for r in kernel.relators:
            assert canonical_relator(r) == canonical_relator_all_rotations(r)


def test_tietze_two_letter_elimination():
    p = parse_presentation("group t\ngens: x y\nrel: x y^-1\n")
    q = tietze_eliminate(p)
    assert len(q.generators) == 1
    assert q.generators[0] == Gen("y")


def test_tietze_preserves_abelianization():
    p = sphere_braid(4)
    rs = rs_finite_cyclic(p, 6, S1)
    before = abelianization(rs.presentation)
    after = abelianization(tietze_eliminate(rs).presentation)
    assert before == after


def test_rs_weight_checks():
    with pytest.raises(ValueError):
        # exponent sums of a sphere relator are not 0 mod 5
        rs_finite_cyclic(sphere_braid(4), 5, S1)
    # the CLI refuses a negative --mod itself; API callers get this error
    with pytest.raises(ValueError, match="modulus must be positive"):
        rs_finite_cyclic(sphere_braid(4), -2, S1)


def test_rs_index_matches_generator_count():
    # kernel of B_3 -> Z/2: Nielsen-Schreier style count for the free part
    rs = rs_finite_cyclic(artin_braid(3), 2, S1)
    p = rs.presentation
    # the non-transversal generator contributes one Schreier generator per
    # coset, plus the designated power w of the transversal generator
    assert len(p.generators) == 3
    assert Gen("w") in p.generators


def test_rs_soundness_expanded_relators_are_ambient_consequences():
    """Every rewritten relator must expand to a braid-trivial ambient word."""
    rs = rs_finite_cyclic(artin_braid(4), 3, S1)
    for r in rs.presentation.relators:
        assert braid_equal(expand(rs, r), parse_word("1"), 4)


def test_rs_dictionary_weights():
    rs = rs_finite_cyclic(sphere_braid(4), 6, S1)
    weights = {g: 1 for g in sphere_braid(4).generators}
    for g, w in rs.dictionary.items():
        total = sum(s * weights[x] for x, s in w.letters())
        expected = 6 if g == Gen("w") else 0
        assert total == expected


def test_rs_z_window_families():
    out = rs_z_window(affine_A(3), Gen("s", (0,)))
    ip = out.presentation
    assert isinstance(ip, IndexedPresentation)
    assert ip.families
    inst = ip.instantiate(2)
    assert inst.relators


def test_rs_z_window_dictionary_words_have_weight_zero():
    a, b = Gen("a"), Gen("b")
    weights = {a: 1, b: -1}
    out = rs_z_window(Presentation("F2", (a, b), ()), a, weights)
    assert out.dictionary
    for w in out.dictionary.values():
        assert sum(sign * weights[g] for g, sign in w.letters()) == 0


def _snapshot_z_kernels():
    """(file, presentation, transversal) of each `rs --mod 0` kernel of
    `cli_snapshot.Z_KERNELS`, built as `present` builds that file."""
    families = {cli_snapshot._name(family, *opts): (family, opts)
                for family, sizes in cli_snapshot.FAMILIES for opts in sizes}
    for path, t in cli_snapshot.Z_KERNELS:
        family, opts = families[path]
        builder, _names = cli._FAMILIES[family]
        p = getattr(presentations, builder)(*map(int, opts[1::2]))
        yield path, p, cli._parse_gen(t)


def test_expand_raises_for_generator_without_dictionary_entry():
    # the dictionary of window K spells x@k for exactly |k| <= K: every
    # generator `rs --mod 0 --window K` prints, and nothing past K
    for path, p, t in _snapshot_z_kernels():
        for window in (2, 3, 5):
            raw = rs_z_window(p, t, window=window)
            for out in (raw, tietze_eliminate(raw)):
                gens = out.presentation.instantiate(window).generators
                assert all(g in out.dictionary for g in gens), (path, window)
                assert all(abs(g.indices[0]) <= window
                           for g in out.dictionary if g.indices), (path, window)
                for f in raw.presentation.families:
                    past = Gen(f, (window + 1,))
                    with pytest.raises(ValueError, match=re.escape(str(past))):
                        expand(out, letter(past))
    # a window `instantiate` rejects has no dictionary either
    with pytest.raises(ValueError, match="window must be >= 1"):
        rs_z_window(artin_braid(5), S1, window=0)


def test_family_tietze_collapses_duplicates():
    raw = rs_z_window(affine_A(3), Gen("s", (0,)))
    out = tietze_eliminate(raw)
    assert len(out.presentation.families) <= len(raw.presentation.families)


def test_family_tietze_keeps_periodic_family():
    # z@k = z@(k+2) makes z periodic with two generators z@0, z@1, not constant
    ip = IndexedPresentation("p2", (), ("z",), (), (parse_word("z[0] z[2]^-1"),))
    assert str(abelianization(ip.instantiate(3))) == "Z^2"
    assert abelianization(tietze_eliminate(ip).instantiate(3)) == \
        abelianization(ip.instantiate(3))


def test_family_tietze_drops_families_equal_up_to_a_shift():
    # with transversal t, relator families that become index shifts of one
    # another after elimination must appear once
    for m in range(3, 7):
        out = tietze_eliminate(rs_z_window(kent_peifer(m), Gen("t")))
        for k in (2, 3):
            rels = out.presentation.instantiate(k).relators
            assert len(set(rels)) == len(rels), (m, k)


def test_family_tietze_preserves_windowed_invariants():
    cases = [(p, t) for p in map(kent_peifer, range(3, 7)) for t in p.generators]
    cases += [(artin_braid(4), S1), (artin_braid(5), S1), (affine_C(3), S1),
              (affine_A(3), Gen("s", (0,)))]
    for p, t in cases:
        raw = rs_z_window(p, t)
        out = tietze_eliminate(raw)
        for k in (4, 6):
            assert abelianization(out.presentation.instantiate(k)) == \
                abelianization(raw.presentation.instantiate(k)), (p.name, t, k)


def test_family_tietze_collapsed_generators_have_dictionary_entries():
    for p, collapsed in ((artin_braid(5), ("s3", "s4")), (affine_C(3), ("r3",))):
        out = tietze_eliminate(rs_z_window(p, S1))
        assert out.presentation.fixed_generators == tuple(Gen(f) for f in collapsed)
        inst = out.presentation.instantiate(2)
        for g in inst.generators:
            assert expand(out, letter(g)) == out.dictionary[g]
    # the entries make every B_5 kernel relator expand to a trivial braid
    out = tietze_eliminate(rs_z_window(artin_braid(5), S1))
    for r in out.presentation.instantiate(2).relators:
        assert braid_equal(expand(out, r), IDENTITY, 5)


def test_tietze_matches_the_sweep_oracle():
    # same generators, same relators, same relator order
    for p in _oracle_inputs():
        assert tietze_eliminate(p) == sweep_tietze(p), p.name


def test_tietze_matches_the_sweep_oracle_on_small_random_presentations():
    # short relators over four generators often become duplicates of one
    # another, which exercises which duplicate each round keeps
    rng = random.Random(0)
    gens = tuple(Gen(c) for c in "abxy")
    for _ in range(2000):
        rels = [free_reduce([(rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                             for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(1, 7))]
        p = Presentation("random", gens, tuple(w for w in rels if w))
        assert tietze_eliminate(p) == sweep_tietze(p), p.relators


def _scramble(p, data):
    """p with its relators reordered, each rotated by some letters, possibly
    inverted and possibly conjugated by a generator (not cyclically
    reduced)."""
    order = data.draw(st.permutations(range(len(p.relators))))
    rels = []
    for i in order:
        letters = list(p.relators[i].letters())
        k = data.draw(st.integers(0, len(letters) - 1))
        w = free_reduce(letters[k:] + letters[:k])
        if data.draw(st.booleans()):
            w = invert(w)
        by = data.draw(st.sampled_from((None,) + p.generators))
        if by is not None:
            w = multiply(letter(by), w, invert(letter(by)))
        rels.append(w)
    return Presentation(p.name, p.generators, tuple(rels))


_SCRAMBLED = (rs_finite_cyclic(sphere_braid(4), 6, S1).presentation,
              rs_finite_cyclic(sphere_braid(5), 8, S1).presentation,
              rs_finite_cyclic(artin_braid(4), 3, S1).presentation,
              rs_finite_cyclic(punctured_sphere(2, 2), 4, S1).presentation,
              sphere_braid(5), b22_two_generator())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SCRAMBLED), st.data())
def test_tietze_matches_the_sweep_oracle_on_scrambled_relators(p, data):
    q = _scramble(p, data)
    assert tietze_eliminate(q) == sweep_tietze(q)


def test_elimination_rekeys_only_relators_holding_the_generator(monkeypatch):
    # x = y is eliminated; [a, b] holds neither and is keyed once, on entry
    p = parse_presentation("group t\ngens: a b x y\n"
                           "rel: x y^-1\nrel: a b a^-1 b^-1\nrel: x a x^-1 a^-1\n")
    # the oracle keys relators through _cyclic_key too: run it unpatched
    want = sweep_tietze(p)
    keyed = []
    key = reidschreier._cyclic_key
    monkeypatch.setattr(reidschreier, "_cyclic_key",
                        lambda runs: keyed.append(runs) or key(runs))
    q = tietze_eliminate(p)
    assert q == want
    assert q.generators == (Gen("a"), Gen("b"), Gen("y"))
    # three keys on entry, then one for each of the two relators holding x
    assert len(keyed) == 5


# ---------------------------------------------------------------------------
# rs_coset_table: finite permutation actions

A, B = Gen("a"), Gen("b")
_F2 = Presentation("F2", (A, B), ())


def _model_act(model, images):
    return lambda c, x: model.mul(c, images[x])


def _model_image(model, images, start, w):
    image = start
    for gen, sign in w.letters():
        image = model.mul(image, images[gen] if sign > 0
                          else model.inv(images[gen]))
    return image


def sweep_trace(transitions, start, w):
    """End coset of w from an inverse table rebuilt on each call."""
    inverse = {(d, g): c for (c, g), d in transitions.items()}
    v = start
    for g, sign in w.letters():
        v = transitions[(v, g)] if sign > 0 else inverse[(v, g)]
    return v


def random_word(rng, gens, length):
    letters = []
    while len(letters) < length:
        step = (rng.choice(gens), rng.choice((1, -1)))
        if letters and letters[-1] == (step[0], -step[1]):
            continue
        letters.append(step)
    return free_reduce(letters)


def test_coset_table_klein_four():
    t = klein_four()
    cosets, _, moves, _ = reidschreier._coset_moves(
        (A, B), t.identity(), _model_act(t, {A: "p", B: "q"}))
    assert len(cosets) == 4
    # walking a word lands on its image in the quotient
    assert cosets[reidschreier._rewrite(parse_word("a b"), 0, moves)[1]] == "pq"
    assert cosets[reidschreier._rewrite(parse_word("a^2"), 0, moves)[1]] == "e"


def test_schreier_basis_klein_four():
    t = klein_four()
    images = {A: "p", B: "q"}
    transversal = [parse_word(x) for x in ("1", "a", "a b", "a b a^-1")]
    out = rs_coset_table(_F2, t.identity(), _model_act(t, images), transversal)
    basis = list(out.dictionary.values())
    assert len(basis) == 5
    assert rank(fold(basis)) == 5
    # every basis word maps to the identity of the quotient
    for w in basis:
        assert _model_image(t, images, t.identity(), w) == t.identity()


@pytest.mark.parametrize("model, images", [
    (klein_four(), {A: "p", B: "q"}),
    (q8(), {A: "x", B: "y"}),
])
def test_coset_trace_matches_the_inverse_table_oracle(model, images):
    transitions = {(c, g): model.mul(c, images[g])
                   for c in model.elements for g in (A, B)}
    cosets, _, moves, _ = reidschreier._coset_moves(
        (A, B), model.identity(), _model_act(model, images))
    rng = random.Random(1)
    for _ in range(200):
        w = random_word(rng, [A, B], rng.randrange(12))
        for i, start in enumerate(cosets):
            end = cosets[reidschreier._rewrite(w, i, moves)[1]]
            assert end == sweep_trace(transitions, start, w)
            assert end == _model_image(model, images, start, w)


_PURE_SPHERE_CASES = ((3, "Z/2", True), (4, "Z^2 x Z/2", True),
                      (5, "Z^5 x Z/2", True), (6, "Z^9 x Z/2", False))


@pytest.mark.parametrize("n, invariants, tietze", _PURE_SPHERE_CASES,
                         ids=["%d-%s%s" % (n, inv, "" if tietze else "-raw")
                              for n, inv, tietze in _PURE_SPHERE_CASES])
def test_pure_sphere_braid_group_abelianization(n, invariants, tietze):
    # P_n(S^2) is the kernel of B_n(S^2) -> S_n, of index n!, with
    # abelianization Z^(n(n-3)/2) x Z/2; at n = 6 the raw kernel (2881
    # generators, 7920 relators) goes straight to the sparse eliminator
    out = pure_sphere_kernel(n)
    assert out.presentation.name == "B%d(S2)/ker%d" % (n, math.factorial(n))
    p = tietze_eliminate(out).presentation if tietze else out.presentation
    assert str(abelianization(p)) == invariants


_CYCLIC_CASES = (
    (sphere_braid(4), S1, 6, None), (artin_braid(4), S1, 3, None),
    (punctured_sphere(2, 2), S1, 4, None),
    (parse_presentation("group q\ngens: a b\nrel: a^6\nrel: b a^-2\n"),
     Gen("a"), 6, {Gen("a"): 1, Gen("b"): 2}))


@pytest.mark.parametrize("p, t, modulus, weights", _CYCLIC_CASES,
                         ids=[case[0].name for case in _CYCLIC_CASES])
def test_coset_table_relators_substitute_to_the_cyclic_ones(p, t, modulus,
                                                            weights):
    # over {t^j} the coset table's x[..., c] is t^c x t^-((c+omega) mod m),
    # rs_finite_cyclic's is t^c x t^-(c+omega) = x[..., c] w^-q with
    # q = (c+omega) // m, and t[..., m-1] = t^m is w: substituting
    # x[..., c] w^q and w gives rs_finite_cyclic's relators
    weights = weights or {g: 1 for g in p.generators}
    w_gen = Gen("w")
    table = rs_coset_table(p, 0, lambda c, x: (c + weights[x]) % modulus,
                           [power(letter(t), j) for j in range(modulus)])
    images = {}
    for g in table.presentation.generators:
        x, c = Gen(g.name, g.indices[:-1]), g.indices[-1]
        if x == t:
            assert c == modulus - 1
            images[g] = letter(w_gen)
        else:
            q = (c + weights[x]) // modulus
            images[g] = multiply(letter(g), power(letter(w_gen), q))
    substituted = (substitute(r, images) for r in table.presentation.relators)
    assert tuple(r for r in substituted if r) == \
        rs_finite_cyclic(p, modulus, t, weights).presentation.relators


def _derived_ladder(p):
    """Abelian invariants down the derived series while the abelianization
    is finite: each step takes the kernel onto the abelianization, acting
    on tuples of residues through the columns of the Smith form's Q."""
    ladder = []
    while True:
        ladder.append(str(abelianization(p)))
        if ladder[-1] == "1":
            return ladder
        snf = smith_normal_form(matrix([exponent_vector(r, p.generators)
                                        for r in p.relators]))
        d = snf.invariant_factors()
        assert len(d) == len(p.generators) and all(d)
        keep = [i for i, di in enumerate(d) if di > 1]
        image = {x: [snf.q[k, i] for i in keep]
                 for k, x in enumerate(p.generators)}
        moduli = [d[i] for i in keep]

        def act(c, x, image=image, moduli=moduli):
            return tuple((a + b) % m for a, b, m in zip(c, image[x], moduli))

        p = tietze_eliminate(rs_coset_table(p, (0,) * len(keep), act)).presentation


def test_derived_series_ladders():
    # B_3(S^2) is the dicyclic group of order 12, and Q8 has derived
    # subgroup Z/2
    assert _derived_ladder(sphere_braid(3)) == ["Z/4", "Z/3", "1"]
    q8_pres = parse_presentation("group Q8\ngens: x y\nrel: x^2 y^-2\n"
                                 "rel: y x y^-1 x\n")
    assert _derived_ladder(q8_pres) == ["Z/2 x Z/2", "Z/2", "1"]


def _finite_case(name, gens, start, act, image):
    """An expansion case over the coset table of a finite action; image(c,
    w) is the coset that w leads to from c."""
    cosets, reps, moves, dictionary = reidschreier._coset_moves(gens, start, act)
    number = {c: i for i, c in enumerate(cosets)}
    return (name, gens, moves, dictionary, range(len(cosets)), reps.__getitem__,
            lambda c, w: number[image(cosets[c], w)])


# the drawn words: a start coset in [-3, 3] (Z case) and at most 12 runs
# of exponents in [-3, 3]
_START, _RUNS, _EXPONENT = 3, 12, 3


def _expansion_cases():
    """(name, generators, move map, dictionary, start cosets, rep(c), end
    coset of w from c) for weight maps onto Z/5 and Z and for the
    Klein-four, Q8 and S_4 actions."""
    gens = (_T, _X, _Y)
    free = Presentation("F", gens, ())
    weights = {_T: 1, _X: 2, _Y: -1}
    # every coset a drawn word visits from a start coset lies in [-K, K]
    z_window = _START + _RUNS * _EXPONENT * max(map(abs, weights.values()))

    def weight(w):
        return sum(weights[x] * e for x, e in w.runs)

    def t_power(c):
        return power(letter(_T), c)

    klein, klein_images = klein_four(), {A: "p", B: "q"}
    quaternions, q8_images = q8(), {A: "x", B: "y"}
    s4_act = strand_permutation_act(4)
    return [
        ("Z/5", gens,
         reidschreier._weight_moves(_T, weights, 5, _finite_name),
         rs_finite_cyclic(free, 5, _T, weights).dictionary, range(5),
         t_power, lambda c, w: (c + weight(w)) % 5),
        ("Z", gens,
         reidschreier._weight_moves(_T, weights, 0,
                                    lambda x, c: Gen(_FAM[x], (c,))),
         rs_z_window(free, _T, weights, window=z_window).dictionary,
         range(-_START, _START + 1),
         t_power, lambda c, w: c + weight(w)),
        _finite_case("Klein four", (A, B), "e", _model_act(klein, klein_images),
                     lambda c, w: _model_image(klein, klein_images, c, w)),
        _finite_case("Q8", (A, B), "1", _model_act(quaternions, q8_images),
                     lambda c, w: _model_image(quaternions, q8_images, c, w)),
        # the generators of S_4 are involutions, so signs do not matter
        _finite_case("S_4", tuple(Gen("s", (i,)) for i in range(1, 4)),
                     (1, 2, 3, 4), s4_act,
                     lambda c, w: reduce(s4_act, (x for x, _ in w.letters()), c)),
    ]


_EXPANSION_CASES = _expansion_cases()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_EXPANSION_CASES), st.data())
def test_rewrite_expands_to_the_schreier_word(case, data):
    # expand(rewrite of w from c) = rep(c) w rep(c w)^-1, freely
    _, gens, moves, dictionary, starts, rep, end_of = case
    w = data.draw(st.lists(st.tuples(st.sampled_from(gens),
                                     st.integers(-_EXPONENT, _EXPONENT).filter(bool)),
                           max_size=_RUNS).map(free_reduce))
    c = data.draw(st.sampled_from(starts))
    rewritten, end = reidschreier._rewrite(w, c, moves)
    assert end == end_of(c, w)
    # a letter the dictionary lacks is a KeyError, not kept by substitute
    images = {g: dictionary[g] for g in rewritten.generators()}
    assert substitute(rewritten, images) == \
        multiply(rep(c), w, invert(rep(end)))


_KLEIN_ACT = _model_act(klein_four(), {A: "p", B: "q"})


@pytest.mark.parametrize("transversal, message", [
    (("1", "a", "a^-1", "a b"), "transversal word a\\^-1 repeats coset 'p'"),
    (("1", "a"), "transversal misses 2 of the 4 cosets"),
    (("a", "1", "a b", "a b a^-1"),
     "first transversal word a must represent the identity coset"),
    (("1", "a", "b", "a^-1 b"),
     "transversal is not prefix-closed: a\\^-1 b lacks its prefix a\\^-1"),
], ids=["repeats", "misses", "first-not-identity", "not-prefix-closed"])
def test_coset_table_rejects_a_bad_transversal(transversal, message):
    with pytest.raises(ValueError, match=message):
        rs_coset_table(_F2, "e", _KLEIN_ACT,
                       [parse_word(w) for w in transversal])


def test_coset_table_rejects_an_action_past_the_budget():
    # Z acting on itself has no end of cosets
    with pytest.raises(ValueError, match="the action has more than %d cosets"
                       % reidschreier._COSET_BUDGET):
        rs_coset_table(_F2, 0, lambda c, x: c + 1)


def test_coset_table_rejects_an_action_that_does_not_permute():
    with pytest.raises(ValueError,
                       match="generator a does not permute the cosets"):
        rs_coset_table(_F2, 0, lambda c, x: 1)


def test_coset_table_rejects_a_relator_that_moves_a_coset():
    p = parse_presentation("group c3\ngens: a\nrel: a^3\n")
    with pytest.raises(ValueError, match="relator a\\^3 does not fix coset 0"):
        rs_coset_table(p, 0, lambda c, x: (c + 1) % 2)
