"""Reidemeister-Schreier rewriting and the limited Tietze eliminator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from braidkit.garside import braid_equal
from braidkit import reidschreier
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
    rs_finite_cyclic,
    rs_z_window,
    tietze_eliminate,
)
from braidkit.series import abelianization
from braidkit.words import (IDENTITY, Gen, free_reduce, invert, letter, multiply,
                            parse_word, substitute)

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
        got = reidschreier._rewrite(word, start, _T, weights, modulus,
                                    _finite_name, Gen("w"))
        assert got == former_finite_rewrite(word, start, _T, weights, modulus)
    else:
        got = reidschreier._rewrite(word, start, _T, weights, 0,
                                    lambda x, c: Gen(_FAM[x], (c,)), None)
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
    at several moduli and transversals, and the built-in finite
    presentations."""
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
        assert braid_equal(rs.expand(r), parse_word("1"), 4)


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


def test_expand_raises_for_generator_without_dictionary_entry():
    # the dictionary reaches 8 past the window; instantiating at K=12 goes
    # beyond it for s1, s2 at indices +-11, +-12
    out = rs_z_window(affine_A(3), Gen("s", (0,)), window=2)
    gens = out.presentation.instantiate(12).generators
    assert len([g for g in gens if g not in out.dictionary]) == 8
    s1_10, s1_12 = Gen("s1", (10,)), Gen("s1", (12,))
    assert out.expand(letter(s1_10)) == out.dictionary[s1_10]
    with pytest.raises(ValueError, match=r"s1\[12\]"):
        out.expand(multiply(letter(s1_10), letter(s1_12)))


def test_family_tietze_collapses_duplicates():
    raw = rs_z_window(affine_A(3), Gen("s", (0,)))
    out = tietze_eliminate(raw)
    assert len(out.presentation.families) <= len(raw.presentation.families)


def test_family_tietze_keeps_periodic_family():
    # z@k = z@(k+2) makes z periodic with two generators z@0, z@1, not constant
    ip = IndexedPresentation("p2", (), ("z",), (), (parse_word("z[0] z[2]^-1"),), 3)
    assert str(abelianization(ip.instantiate())) == "Z^2"
    assert abelianization(tietze_eliminate(ip).instantiate()) == \
        abelianization(ip.instantiate())


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
        inst = out.presentation.instantiate()
        for g in inst.generators:
            assert out.expand(letter(g)) == out.dictionary[g]
    # the entries make every B_5 kernel relator expand to a trivial braid
    out = tietze_eliminate(rs_z_window(artin_braid(5), S1))
    for r in out.presentation.instantiate().relators:
        assert braid_equal(out.expand(r), IDENTITY, 5)


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
    keyed = []
    key = reidschreier._cyclic_key
    monkeypatch.setattr(reidschreier, "_cyclic_key",
                        lambda runs: keyed.append(runs) or key(runs))
    q = tietze_eliminate(p)
    assert q == sweep_tietze(p)
    assert q.generators == (Gen("a"), Gen("b"), Gen("y"))
    # three keys on entry, then one for each of the two relators holding x
    assert len(keyed) == 5
