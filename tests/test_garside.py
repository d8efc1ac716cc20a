"""Garside left-greedy normal form and the braid word problem.

The incremental normal form is checked against two slow oracles: the Artin
action of B_n on the free group F_n, which is faithful, and the former
implementation (one factor per letter, eager tau, a global sweep), kept
here as `sweep_normal_form`.  The left meet that repairs each pair, and the
pair repair itself, are checked against a search over all permutations, and
the repairs a normal form memoizes against the sweep on long words.  The
blocks `normal_form` appends whole are counted against `block_count`, which
tracks the crossed strand pairs as a set.  The braid model's memo, kept
across its products, is checked against the same evaluations with no memo
and against the repair of each pair it holds."""

import random
from itertools import permutations
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from braidkit import garside, models
from braidkit.garside import braid_equal, nf_to_word, normal_form, permutation
from braidkit.hom import check_hom
from braidkit.models import GarsideBraidGroup, GroupModel
from braidkit.presentations import artin_braid
from braidkit.words import (Gen, free_reduce, invert, letter, multiply, parse_word,
                            substitute)
from oracles import (action_of_word, artin_action, perm_braid_meet_by_search,
                     perm_braid_word_by_restarts)

IDENT = parse_word("1")


def braid_words(n, max_runs=8):
    run = st.tuples(st.integers(1, n - 1), st.integers(-2, 2).filter(bool))
    return st.lists(run, max_size=max_runs).map(
        lambda rs: free_reduce([(Gen("s", (i,)), e) for i, e in rs]))


def with_strands(lo, hi, words=1, max_runs=8):
    """(n, w_1, ..., w_words) with n drawn from lo..hi."""
    return st.integers(lo, hi).flatmap(lambda n: st.tuples(
        st.just(n), *[braid_words(n, max_runs) for _ in range(words)]))


# -- permutation braids, written out independently of braidkit.garside ----

def _pmul(a, b):
    return tuple(b[a[i]] for i in range(len(a)))


def _pinv(p):
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def _ps(i, n):
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _pdelta(n):
    return tuple(reversed(range(n)))


def _ptau(p):
    d = _pdelta(len(p))
    return _pmul(_pmul(d, p), d)


def starting_set(p):
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def finishing_set(p):
    return starting_set(_pinv(p))


def sweep_normal_form(word, n):
    """The former `normal_form`: one factor per letter, tau applied to every
    stored factor on each negative letter, then single generators slid left
    until no pair changes, with interior Delta factors pulled to the front."""
    ident, delta = tuple(range(n)), _pdelta(n)
    power, factors = 0, []
    for g, sign in word.letters():
        i = g.indices[0]
        if sign > 0:
            factors.append(_ps(i, n))
        else:
            power -= 1
            factors = [_ptau(f) for f in factors]
            factors.append(_pmul(delta, _ps(i, n)))
    while True:
        factors = [f for f in factors if f != ident]
        changed = True
        while changed:
            changed = False
            for j in range(len(factors) - 1):
                a, b = factors[j], factors[j + 1]
                move = starting_set(b) - finishing_set(a)
                while move:
                    si = _ps(min(move), n)
                    a, b = _pmul(a, si), _pmul(si, b)
                    changed = True
                    move = starting_set(b) - finishing_set(a)
                factors[j], factors[j + 1] = a, b
        idx = next((j for j, f in enumerate(factors) if f == delta), None)
        if idx is None:
            factors = [f for f in factors if f != ident]
            break
        power += 1
        factors = [_ptau(f) for f in factors[:idx]] + factors[idx + 1:]
    return garside.BraidNF(n, power, tuple(factors))


def grow(p, rng, steps):
    """p times up to `steps` random generators, each crossing two strands
    that are not yet crossed, so the result is a permutation braid that p
    left-divides."""
    for _ in range(steps):
        q = _pinv(p)
        ups = [k for k in range(1, len(p)) if q[k - 1] < q[k]]
        if not ups:
            break
        p = _pmul(p, _ps(rng.choice(ups), len(p)))
    return p


def assert_left_weighted(nf):
    """No Delta or identity factor, every factor a permutation, and
    S(B) ⊆ F(A) for each adjacent pair (A, B)."""
    n = nf.n
    for f in nf.factors:
        assert sorted(f) == list(range(n))
        assert f not in (tuple(range(n)), _pdelta(n))
    for a, b in zip(nf.factors, nf.factors[1:]):
        assert starting_set(b) <= finishing_set(a)


def _relators(n):
    s = [None] + [Gen("s", (i,)) for i in range(1, n)]
    rels = [[(s[i], 1), (s[i + 1], 1), (s[i], 1), (s[i + 1], -1), (s[i], -1),
             (s[i + 1], -1)] for i in range(1, n - 1)]
    rels += [[(s[i], 1), (s[j], 1), (s[i], -1), (s[j], -1)]
             for i in range(1, n) for j in range(i + 2, n)]
    return rels


@st.composite
def artin_pairs(draw):
    """(n, u, v, built_equal): v is u with a conjugated relator inserted,
    or an independent random word."""
    n = draw(st.integers(3, 6))
    letters = st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
                       max_size=8)
    u = [(Gen("s", (i,)), e) for i, e in draw(letters)]
    equal = draw(st.booleans())
    if equal:
        r = draw(st.sampled_from(_relators(n)))
        k = draw(st.integers(0, len(r) - 1))
        r = r[k:] + r[:k]
        if draw(st.booleans()):
            r = [(g, -e) for g, e in reversed(r)]
        c = [(Gen("s", (i,)), e) for i, e in draw(letters.map(lambda x: x[:2]))]
        c_inv = [(g, -e) for g, e in reversed(c)]
        pos = draw(st.integers(0, len(u)))
        v = u[:pos] + c + r + c_inv + u[pos:]
    else:
        v = [(Gen("s", (i,)), e) for i, e in draw(letters)]
    return n, free_reduce(u), free_reduce(v), equal


def test_braid_relation():
    assert braid_equal(parse_word("s[1] s[2] s[1]"), parse_word("s[2] s[1] s[2]"), 3)


def test_far_commutation():
    assert braid_equal(parse_word("s[1] s[3]"), parse_word("s[3] s[1]"), 4)


def test_nontrivial_words_differ():
    assert not braid_equal(parse_word("s[1]"), parse_word("s[2]"), 3)
    assert not braid_equal(parse_word("s[1]^2"), IDENT, 3)


def test_negative_exponents():
    w1 = parse_word("s[1]^2 s[2] s[1]^-3")
    w2 = parse_word("s[1] s[2]^-1 s[1] s[2] s[1]^-2")
    assert braid_equal(w1, w2, 3)


def test_normal_form_needs_two_strands():
    # the CLI refuses braid-eq --n 1 itself; API callers get this error
    with pytest.raises(ValueError, match="need n >= 2"):
        normal_form(parse_word("s[1]"), 1)


def test_permutation_of_generators():
    assert permutation(parse_word("s[1]"), 3) == (2, 1, 3)
    assert permutation(parse_word("s[1] s[2]"), 3) == permutation(
        parse_word("s[2] s[1] s[2] s[1]^-1"), 3)


@settings(max_examples=80)
@given(braid_words(4))
def test_normal_form_round_trip(w):
    nf = normal_form(w, 4)
    assert normal_form(nf_to_word(nf), 4) == nf


@settings(max_examples=80)
@given(braid_words(4))
def test_word_times_inverse_trivial(w):
    assert braid_equal(multiply(w, invert(w)), IDENT, 4)


@settings(max_examples=60)
@given(braid_words(4), braid_words(4))
def test_permutation_multiplicative(u, v):
    pu, pv, puv = (permutation(x, 4) for x in (u, v, multiply(u, v)))
    composed = tuple(pv[pu[i] - 1] for i in range(4))
    assert composed == puv


@settings(max_examples=40)
@given(braid_words(3))
def test_equal_after_inserting_relator(w):
    rel = parse_word("s[1] s[2] s[1] s[2]^-1 s[1]^-1 s[2]^-1")
    assert braid_equal(w, multiply(w, rel), 3)


def test_normal_form_left_weighted_factors_are_permutation_braids():
    nf = normal_form(parse_word("s[1] s[2] s[1] s[2]"), 3)
    n = nf.n
    for f in nf.factors:
        assert sorted(f) == list(range(n))


@settings(max_examples=150, deadline=None)
@given(artin_pairs())
def test_braid_equal_iff_equal_artin_automorphisms(case):
    n, u, v, built_equal = case
    acts = {Gen("s", (i,)): artin_action(i, n) for i in range(1, n)}
    same = action_of_word(acts, u).images == action_of_word(acts, v).images
    assert braid_equal(u, v, n) == same
    if built_equal:
        assert same


@settings(max_examples=120, deadline=None)
@given(with_strands(2, 8, max_runs=16))
def test_normal_form_matches_the_sweep_oracle(case):
    n, w = case
    assert normal_form(w, n) == sweep_normal_form(w, n)


@settings(max_examples=120, deadline=None)
@given(with_strands(2, 6, words=2, max_runs=10))
def test_model_mul_and_inv_match_the_word_path(case):
    n, u, v = case
    model = GarsideBraidGroup(n)
    a, b = model.from_word(u), model.from_word(v)
    product = model.mul(a, b)
    assert product == normal_form(multiply(nf_to_word(a), nf_to_word(b)), n)
    assert product == normal_form(multiply(u, v), n)
    assert model.inv(a) == normal_form(invert(nf_to_word(a)), n)
    assert model.mul(a, model.inv(a)) == model.identity()


@settings(max_examples=100, deadline=None)
@given(with_strands(2, 7, words=2, max_runs=12))
def test_every_output_is_left_weighted(case):
    n, u, v = case
    model = GarsideBraidGroup(n)
    a, b = normal_form(u, n), normal_form(v, n)
    for nf in (a, b, model.mul(a, b), model.mul(b, a), model.inv(a)):
        assert_left_weighted(nf)


def test_model_mul_refuses_braids_on_different_strand_counts():
    a = normal_form(parse_word("s[1]"), 3)
    b = normal_form(parse_word("s[1]"), 4)
    with pytest.raises(ValueError, match="braids on 3 and 4 strands"):
        GarsideBraidGroup(3).mul(a, b)


def test_two_strands_are_powers_of_delta():
    assert str(normal_form(parse_word("s[1]^3"), 2)) == "D^3"
    assert str(normal_form(parse_word("s[1]^-2"), 2)) == "D^-2"
    model = GarsideBraidGroup(2)
    a = model.from_word(parse_word("s[1]^-3"))
    assert model.mul(a, model.inv(a)) == model.identity()


def test_model_mul_and_inv_never_pass_through_words(monkeypatch):
    """Nor does a relator: each is evaluated as one `nf_product`, and the
    only normal forms written out as words are the images `check_hom`
    prints."""
    model = GarsideBraidGroup(4)
    p = artin_braid(4)
    g = parse_word("s[2] s[1]^-1 s[3]")
    images = {s: model.from_word(multiply(g, letter(s), invert(g)))
              for s in p.generators}
    s1 = Gen("s", (1,))
    squared = dict(images)
    squared[s1] = model.mul(images[s1], images[s1])
    want = [model.eval_word(a, r) for a in (images, squared) for r in p.relators]

    def refuse(*_args):
        raise AssertionError("a braid model product went through a word")

    printed, products = [], []
    print_word, product = models.nf_to_word, garside.nf_product
    monkeypatch.setattr(garside, "nf_to_word", refuse)
    monkeypatch.setattr(garside, "normal_form", refuse)
    monkeypatch.setattr(models, "nf_to_word",
                        lambda nf: printed.append(nf) or print_word(nf))
    monkeypatch.setattr(garside, "nf_product",
                        lambda *args: products.append(args) or product(*args))
    assert check_hom(p, model, images).all_trivial
    report = check_hom(p, model, squared)
    # s[1]^2 still commutes with s[3]; only the braid relation on s[1] fails
    assert [c.index for c in report.checks if not c.trivial] == [1]
    assert printed == want
    assert len(products) == len(want)
    printed.clear()
    assert [model.eval_word(squared, r) for r in p.relators] == want[len(p.relators):]
    assert printed == []


# -- the model's memo of pair repairs ---------------------------------------

@st.composite
def conjugate_images_and_words(draw):
    """(n, images, words): each generator of B_n sent to g s_i^+-1 g^-1,
    with g a random word and i random, and random words in the generators."""
    n = draw(st.integers(2, 6))
    images = {}
    for i in range(1, n):
        g = draw(braid_words(n, max_runs=4))
        s = letter(Gen("s", (draw(st.integers(1, n - 1)),)), draw(st.sampled_from((1, -1))))
        images[Gen("s", (i,))] = multiply(g, s, invert(g))
    return n, images, draw(st.lists(braid_words(n, max_runs=10), min_size=1, max_size=4))


_REUSED = {}  # one model per n, its memo kept across examples


@settings(max_examples=150, deadline=None)
@given(conjugate_images_and_words())
def test_memoized_eval_word_matches_unmemoized_paths(case):
    n, images, relators = case
    model = _REUSED.setdefault(n, GarsideBraidGroup(n))
    assignment = {g: model.from_word(w) for g, w in images.items()}
    # GroupModel.eval_word one letter at a time, through products with no memo
    plain = SimpleNamespace(identity=lambda: garside.BraidNF(n, 0, ()),
                            mul=garside.nf_mul, inv=garside.nf_inv)
    for w in relators:
        got = model.eval_word(assignment, w)
        assert got == GroupModel.eval_word(plain, assignment, w)
        assert got == GarsideBraidGroup(n).eval_word(assignment, w)
        assert got == normal_form(substitute(w, images), n)
    assert assignment == {g: normal_form(w, n) for g, w in images.items()}


def test_memo_is_outside_equality_hash_and_repr():
    used = GarsideBraidGroup(4)
    a = used.from_word(parse_word("s[1] s[2]^-1 s[3] s[2] s[1]^-1"))
    used.mul(a, used.inv(a))
    assert used._memo
    assert GarsideBraidGroup(4) == used
    assert hash(GarsideBraidGroup(4)) == hash(used)
    assert repr(used) == "GarsideBraidGroup(n=4)"
    assert GarsideBraidGroup(4) != GarsideBraidGroup(5)
    with pytest.raises(TypeError):
        GarsideBraidGroup(4, {})


@pytest.mark.parametrize("n", [3, 4])
def test_memo_holds_only_true_repairs_of_at_most_n_factorial_squared_pairs(n):
    """Every entry is the repair of its own pair (None for a left-weighted
    pair), after many hom checks into one model."""
    rng = random.Random(39 + n)
    model = GarsideBraidGroup(n)
    p = artin_braid(n)
    for _ in range(60):
        g = free_reduce([(Gen("s", (rng.randrange(1, n),)), rng.choice((1, -1)))
                         for _ in range(rng.randrange(6))])
        images = {s: model.from_word(multiply(g, letter(s, rng.choice((1, 2))), invert(g)))
                  for s in p.generators}
        check_hom(p, model, images)
    assert 0 < len(model._memo) <= factorial(n) ** 2
    for (a, b), repair in model._memo.items():
        got = garside._weight_pair(a, b)
        assert repair == (None if got[0] is a else got), (a, b)


def test_permutation_braid_words_match_the_restarting_bubble_sort():
    for n in range(1, 7):
        for p in permutations(range(n)):
            assert garside._perm_braid_word(p) == perm_braid_word_by_restarts(p), p


def _complement(a):
    """The right complement A^-1 Delta."""
    return _pmul(_pinv(a), _pdelta(len(a)))


def _meet_via_inverse(c, b):
    """garside._meet takes A^-1 for the complement C = A^-1 Delta and
    returns M^-1; this feeds it C (A^-1 = C Delta^-1) and returns M."""
    ai = _pmul(c, _pdelta(len(c)))   # Delta^-1 and Delta are one permutation
    return _pinv(tuple(garside._meet(ai, b)))


def test_meet_matches_the_search_oracle_on_every_pair_up_to_five_strands():
    for n in range(1, 6):
        perms = list(permutations(range(n)))
        for c in perms:
            for b in perms:
                assert _meet_via_inverse(c, b) == perm_braid_meet_by_search(c, b), (c, b)


def test_meet_matches_the_search_oracle_on_sampled_pairs():
    """Pairs above a common left divisor x, so the meet is at least x."""
    rng = random.Random(18)
    for n in (6, 7, 8):
        top = n * (n - 1) // 2
        for _ in range(30):
            x = grow(tuple(range(n)), rng, rng.randint(0, top // 2))
            c, b = (grow(x, rng, rng.randint(0, top)) for _ in range(2))
            assert _meet_via_inverse(c, b) == perm_braid_meet_by_search(c, b), (c, b)


def test_weight_pair_matches_the_search_oracle_on_every_pair_up_to_five_strands():
    """A left-weighted pair comes back as the same objects; any other pair
    (A, B) as (A M, M^-1 B), where M is the searched meet of A^-1 Delta
    and B."""
    for n in range(1, 6):
        perms = list(permutations(range(n)))
        for a in perms:
            for b in perms:
                got = garside._weight_pair(a, b)
                if starting_set(b) <= finishing_set(a):
                    assert got[0] is a and got[1] is b, (a, b)
                    continue
                m = perm_braid_meet_by_search(_complement(a), b)
                assert got == (_pmul(a, m), _pmul(_pinv(m), b)), (a, b)


def benchmark_braid_pair(rng, n, length, equal):
    """The braid-pair construction of the benchmark's word-problems
    workload: a random freely reduced word, and a second word with
    length // 25 conjugated relators inserted (rotated, perhaps inverted,
    conjugators of up to 2 letters), plus one more letter if unequal."""
    gens = [Gen("s", (i,)) for i in range(1, n)]
    letters = []
    while len(letters) < length:
        g, e = rng.choice(gens), rng.choice((1, -1))
        if not (letters and letters[-1] == (g, -e)):
            letters.append((g, e))
    w = free_reduce(letters)
    other = list(w.letters())
    rels = _relators(n) or [[(gens[0], 1), (gens[0], -1)]]
    for _ in range(max(1, length // 25)):
        r = rng.choice(rels)
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        if rng.random() < 0.5:
            r = [(g, -e) for g, e in reversed(r)]
        u, size = [], rng.randrange(3)
        while len(u) < size:
            g, e = rng.choice(gens), rng.choice((1, -1))
            if not (u and u[-1] == (g, -e)):
                u.append((g, e))
        u_inv = [(g, -e) for g, e in reversed(u)]
        pos = rng.randrange(len(other) + 1)
        other[pos:pos] = u + r + u_inv
    if not equal:
        pos = rng.randrange(len(other) + 1)
        other[pos:pos] = [(rng.choice(gens), rng.choice((1, -1)))]
    return w, free_reduce(other)


@pytest.mark.parametrize("n, length, pairs", [(8, 120, 2), (4, 600, 1)])
def test_memoized_repairs_match_the_sweep_oracle_on_benchmark_pairs(n, length, pairs):
    """Long words repeat pairs within one normal form (about half of them at
    n = 8, nearly all at n = 4), so most repairs come from the memo.  The
    first pair of each size is equal, so conjugated relators are in it."""
    rng = random.Random(30 + n)
    for k in range(pairs):
        equal = k % 2 == 0
        u, v = benchmark_braid_pair(rng, n, length, equal)
        nu, nv = normal_form(u, n), normal_form(v, n)
        assert nu == sweep_normal_form(u, n)
        assert nv == sweep_normal_form(v, n)
        assert (nu == nv) == equal


def test_weight_pair_returns_a_left_weighted_pair_as_the_same_objects():
    nf = normal_form(parse_word("s[1] s[2]^-1 s[3] s[1]^2 s[2] s[3]^-1 s[2]"), 4)
    assert len(nf.factors) >= 3
    for a, b in zip(nf.factors, nf.factors[1:]):
        got = garside._weight_pair(a, b)
        assert got[0] is a and got[1] is b


@settings(max_examples=20, deadline=None)
@given(with_strands(12, 32, words=2, max_runs=6))
def test_deep_meets_match_the_sweep_oracle(case):
    """At n = 12..32 a negative letter brings in a factor Delta s_i^-1 with
    all but one crossing, so pair repairs move larger meets than the n <= 8
    tests reach."""
    n, u, v = case
    a, b = normal_form(u, n), normal_form(v, n)
    assert a == sweep_normal_form(u, n)
    assert garside.nf_mul(a, b) == sweep_normal_form(multiply(u, v), n)
    assert garside.nf_inv(a) == sweep_normal_form(invert(u), n)


# -- blocks: one append per longest same-sign run whose product is simple --

def block_count(word, n):
    """Number of blocks in a word: a letter starts a new block when its sign
    differs from the block's, or when the two strands it crosses have
    crossed in the block already.  Whether a product is simple does not
    depend on the tau frame, so the letters are read as written."""
    count, sign, crossed, at = 0, 0, set(), list(range(n))
    for g, e in word.letters():
        i = g.indices[0]
        if e != sign or frozenset(at[i - 1:i + 1]) in crossed:
            count, sign, crossed, at = count + 1, e, set(), list(range(n))
        crossed.add(frozenset(at[i - 1:i + 1]))
        at[i - 1], at[i] = at[i], at[i - 1]
    return count


def count_appends(monkeypatch):
    """Record the simple element of every `garside._append` call."""
    calls = []
    real = garside._append

    def counting(factors, x, *args):
        calls.append(x)
        real(factors, x, *args)

    monkeypatch.setattr(garside, "_append", counting)
    return calls


def test_normal_form_appends_once_per_block(monkeypatch):
    calls = count_appends(monkeypatch)
    delta = free_reduce(garside._perm_braid_word(_pdelta(6)))
    assert len(delta) == 15
    assert normal_form(delta, 6) == garside.BraidNF(6, 1, ())
    assert calls == [_pdelta(6)]
    calls.clear()
    # Delta^-1 = Delta^-1 (Delta Delta^-1): the one factor is the identity
    assert normal_form(invert(delta), 6) == garside.BraidNF(6, -1, ())
    assert calls == [tuple(range(6))]
    calls.clear()
    assert normal_form(parse_word("s[1]^5"), 3) == sweep_normal_form(
        parse_word("s[1]^5"), 3)
    assert len(calls) == 5


@st.composite
def block_words(draw):
    """(n, w): whole permutation braids written out by `_perm_braid_word`,
    each with a random sign and some followed by its last letter again, to
    the power 1..3 (a pair crossed already, and runs s_i^e with |e| >= 2).
    Same-sign neighbours run together, so blocks also end inside one."""
    n = draw(st.integers(2, 8))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from((1, -1)))
        word = garside._perm_braid_word(draw(st.permutations(range(n))))
        runs += [(g, sign * e) for g, e in word]
        if word and draw(st.booleans()):
            runs.append((word[-1][0], sign * draw(st.integers(1, 3))))
    return n, free_reduce(runs)


@settings(max_examples=120, deadline=None)
@given(block_words())
# a block ends on a pair crossed already (s[2] after Delta)
@example((3, parse_word("s[1] s[2] s[1] s[2] s[1]")))
# negative blocks in both tau frames, one after the other and after a positive one
@example((4, parse_word("s[1]^-1 s[2]^-1 s[1]^-1 s[3]^-1 s[2]^-1 s[3] s[2] s[1]^-1")))
# runs s_i^e with |e| >= 2 of either sign, inside and between blocks
@example((5, parse_word("s[2]^-3 s[1] s[3]^2 s[4] s[3]^-2")))
def test_blocks_match_the_sweep_and_artin_oracles(case):
    n, w = case
    with pytest.MonkeyPatch.context() as mp:
        calls = count_appends(mp)
        nf = normal_form(w, n)
    assert len(calls) == block_count(w, n)
    assert nf == sweep_normal_form(w, n)
    acts = {Gen("s", (i,)): artin_action(i, n) for i in range(1, n)}
    assert action_of_word(acts, nf_to_word(nf)).images == action_of_word(acts, w).images
