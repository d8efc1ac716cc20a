"""Stallings foldings, membership and rewriting in a subgroup basis."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidkit import freesub
from braidkit.freesub import (
    SubgroupGraph,
    _fold,
    contains,
    express,
    fold,
    rank,
)
from braidkit.verify import PRINTED_SCHREIER_BASIS, Z_BASIS
from braidkit.words import (Gen, free_reduce, invert, multiply, parse_word,
                            substitute)

A, B, C = Gen("a"), Gen("b"), Gen("c")


# ---------------------------------------------------------------------------
# slow oracles: folding by union-find with a full rescan after every merge,
# stepping backwards by scanning every edge

class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def sweep_fold(generator_words):
    """(basepoint, edges) of the folded bouquet, edges (u, gen) -> v."""
    uf = _UnionFind()
    next_vertex = 1
    edges = []
    for w in generator_words:
        prev = 0
        letters = list(w.letters())
        for idx, (g, sign) in enumerate(letters):
            tgt = 0 if idx == len(letters) - 1 else next_vertex
            if tgt != 0:
                next_vertex += 1
            edges.append((prev, g, tgt) if sign > 0 else (tgt, g, prev))
            prev = tgt
    while True:
        out_seen, in_seen = {}, {}
        merge = None
        canon = [(uf.find(u), g, uf.find(v)) for u, g, v in edges]
        for u, g, v in canon:
            if (u, g) in out_seen and out_seen[(u, g)] != v:
                merge = (v, out_seen[(u, g)])
                break
            out_seen[(u, g)] = v
            if (v, g) in in_seen and in_seen[(v, g)] != u:
                merge = (u, in_seen[(v, g)])
                break
            in_seen[(v, g)] = u
        if merge is None:
            break
        uf.union(*merge)
    return uf.find(0), {(u, g): v for u, g, v in sorted(set(canon))}


def sweep_step(edges, v, g, sign):
    if sign > 0:
        return edges.get((v, g))
    for (u, h), w in edges.items():
        if h == g and w == v:
            return u
    return None


def sweep_contains(basepoint, edges, w):
    v = basepoint
    for g, sign in w.letters():
        v = sweep_step(edges, v, g, sign)
        if v is None:
            return False
    return v == basepoint


def sweep_rank(basepoint, edges):
    # a folded bouquet is connected: rank = edges - vertices + 1
    vertices = {basepoint} | {u for u, _ in edges} | set(edges.values())
    return len(edges) - len(vertices) + 1


def perturbed(rng, w, gens):
    """w with one letter inserted at a random place."""
    letters = list(w.letters())
    pos = rng.randrange(len(letters) + 1)
    letters[pos:pos] = [(rng.choice(gens), rng.choice((1, -1)))]
    return free_reduce(letters)


def random_word(rng, gens, length):
    letters = []
    while len(letters) < length:
        step = (rng.choice(gens), rng.choice((1, -1)))
        if letters and letters[-1] == (step[0], -step[1]):
            continue
        letters.append(step)
    return free_reduce(letters)


def nielsen_reduced(basis):
    """Fewer than half of x and of y cancel in every product x y of basis
    words or inverses (y != x^-1): then the basis is free."""
    elems = basis + [invert(x) for x in basis]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if j == (i + len(basis)) % len(elems):
                continue
            cancelled = (len(x) + len(y) - len(multiply(x, y))) // 2
            if 2 * cancelled >= min(len(x), len(y)):
                return False
    return True


def even_basis(rng, k, length):
    while True:
        basis = [random_word(rng, [A, B, C], length) for _ in range(k)]
        if nielsen_reduced(basis):
            return basis


def words(max_runs=6):
    run = st.tuples(st.sampled_from((A, B)),
                    st.integers(-2, 2).filter(bool))
    return st.lists(run, max_size=max_runs).map(free_reduce)


def test_fold_rank_of_commutator_kernel():
    # ker(F2 -> Z2 x Z2) has index 4, hence rank 5
    gens = [parse_word(t) for t in
            ("a^2", "b^2", "a b a b", "b a^2 b^-1", "a b^2 a^-1")]
    g = fold(gens)
    assert rank(g) == 5


def test_membership_in_squares_subgroup():
    g = fold([parse_word("a^2"), parse_word("b")])
    assert contains(g, parse_word("a^2 b a^-2"))
    assert contains(g, parse_word("b a^4"))
    assert not contains(g, parse_word("a"))
    assert not contains(g, parse_word("a b a^2"))


@settings(max_examples=50)
@given(st.lists(words(), min_size=1, max_size=4))
def test_products_of_generators_are_members(gens):
    from braidkit.words import invert

    g = fold(gens)
    assert contains(g, multiply(gens[0], gens[-1]))
    assert contains(g, multiply(gens[-1], invert(gens[0]), gens[-1]))


def test_express_round_trip():
    basis = [parse_word(t) for t in
             ("a^2", "b^2", "a b a b", "b a^2 b^-1", "a b^2 a^-1")]
    g = fold(basis)
    mapping = {Gen("z", (i + 1,)): basis[i] for i in range(5)}
    for text in ("a^2 b^2", "a b a b b^2", "b a^2 b^-1 a^2", "a b^2 a^-1 a^2 b^2"):
        w = parse_word(text)
        zw = express(g, basis, w)
        assert substitute(zw, mapping) == w


def bouquets(letters):
    """Up to five words of up to 12 letters over the first `letters` of a, b, c."""
    alphabet = (A, B, C)[:letters]
    step = st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1)))
    words_ = st.lists(st.lists(step, max_size=12).map(free_reduce), max_size=5)
    return words_.map(lambda gens: (alphabet, gens))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(bouquets), st.randoms(use_true_random=False))
def test_fold_matches_the_sweep_oracle(drawn, rng):
    alphabet, gens = drawn
    g = fold(gens)
    basepoint, edges = sweep_fold(gens)
    assert g.basepoint == basepoint
    assert list(g.edges.items()) == list(edges.items())
    assert rank(g) == sweep_rank(basepoint, edges)
    probes = [multiply(w, v) for w in gens for v in gens]
    probes += [perturbed(rng, w, alphabet) for w in probes]
    for w in probes:
        assert contains(g, w) == sweep_contains(basepoint, edges, w)
    for v in range(len(edges) + 2):
        for gen in alphabet:
            for sign in (1, -1):
                assert (g.links.get(v, {}).get((gen, sign))
                        == sweep_step(edges, v, gen, sign))


@pytest.mark.parametrize("seed", range(3))
def test_fold_matches_the_sweep_oracle_on_benchmark_sized_bases(seed):
    # twelve Nielsen-reduced words of length 80 in F(a, b, c), as in the
    # benchmark's subgroup query
    rng = random.Random(seed)
    basis = even_basis(rng, 12, 80)
    g = fold(basis)
    basepoint, edges = sweep_fold(basis)
    assert g.basepoint == basepoint
    assert list(g.edges.items()) == list(edges.items())
    assert rank(g) == sweep_rank(basepoint, edges) == 12
    images = {Gen("z", (i + 1,)): w for i, w in enumerate(basis)}
    for _ in range(3):
        expr = random_word(rng, list(images), 6)
        member = substitute(expr, images)
        other = perturbed(rng, member, [A, B, C])
        assert contains(g, member) and sweep_contains(basepoint, edges, member)
        assert not contains(g, other)
        assert not sweep_contains(basepoint, edges, other)
        assert express(g, basis, member) == expr


def test_backward_step_never_scans_the_edges(monkeypatch):
    gens = [parse_word(t) for t in ("a^2", "b^2", "a b a b")]
    g = fold(gens)
    _, edges = sweep_fold(gens)

    def scanned(_graph):
        raise AssertionError("scanned every edge")

    monkeypatch.setattr(SubgroupGraph, "edges", property(scanned))
    for v in range(len(edges) + 1):
        for gen in (A, B):
            assert (g.links.get(v, {}).get((gen, -1))
                    == sweep_step(edges, v, gen, -1))
    assert contains(g, parse_word("b^-2 a^-2 b^-1 a^-1 b^-1 a^-1"))
    assert not contains(g, parse_word("b^-2 a^-1"))


@pytest.mark.parametrize("graph_words, basis, word, message", [
    (["a^2"], ["a^2"], "b", "word leaves the subgroup graph at b"),
    (["a^2"], ["a^2"], "a", r"word is not in the subgroup \(open path\)"),
    (["a^2"], ["a^2", "a^4"], "a^2", "basis size 2 != subgroup rank 1"),
    (["a", "b"], ["a^2", "b"], "a",
     r"given words are not a free basis of the subgroup "
     r"\(they generate another subgroup\)"),
    (["a", "b"], ["a", "a"], "a",
     r"given words are not a free basis of the subgroup "
     r"\(they generate another subgroup\)"),
])
def test_express_error_paths(graph_words, basis, word, message):
    g = fold([parse_word(t) for t in graph_words])
    with pytest.raises(ValueError, match=message):
        express(g, [parse_word(t) for t in basis], parse_word(word))


def z_images(basis):
    return {Gen("z", (i + 1,)): w for i, w in enumerate(basis)}


def test_express_takes_a_basis_that_pairwise_shortening_cannot_reduce():
    # {b^-1 c^-1, b^-1 a^-1 b, a^-1 c^-1} is a free basis of F(a, b, c)
    # that shortening by products of two words (Nielsen's N2 alone) cannot
    # reduce to single letters
    basis = [parse_word(t) for t in ("b^-1 c^-1", "b^-1 a^-1 b", "a^-1 c^-1")]
    g = fold(basis)
    for text, expected in (("a", "z[3] z[1]^-1 z[2]^-1 z[1] z[3]^-1"),
                           ("b", "z[3] z[1]^-1 z[2]^-1"),
                           ("c", "z[1]^-1 z[2] z[1] z[3]^-1")):
        zw = express(g, basis, parse_word(text))
        assert zw == parse_word(expected)
        assert substitute(zw, z_images(basis)) == parse_word(text)


def test_express_reads_conjugates_by_a_long_prefix():
    # p x p^-1 for x = a, b, c and p an exact 150-letter reduced word: the
    # labels spell long expressions, and a, b, c still round-trip
    p = random_word(random.Random(7), [A, B, C], 150)
    assert len(p) == 150
    basis = [multiply(p, parse_word(x), invert(p)) for x in "abc"]
    g = fold(basis)
    for text in ("a", "b", "c", "a b c"):
        w = parse_word(text)
        assert substitute(express(g, basis, w), z_images(basis)) == w


def nielsen_moves(rng, words_, moves):
    """The words after random Nielsen moves: x_i -> x_i x_j^+-1 or
    x_j^+-1 x_i (i != j), x_i -> x_i^-1, or a swap."""
    basis = list(words_)
    for _ in range(moves):
        i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
        kind = rng.randrange(4)
        x = basis[j] if rng.random() < 0.5 else invert(basis[j])
        if kind == 0 and i != j:
            basis[i] = multiply(basis[i], x)
        elif kind == 1 and i != j:
            basis[i] = multiply(x, basis[i])
        elif kind == 2:
            basis[i] = invert(basis[i])
        else:
            basis[i], basis[j] = basis[j], basis[i]
    return basis


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(bouquets), st.randoms(use_true_random=False))
def test_express_in_a_nielsen_equivalent_basis(drawn, rng):
    _, gens = drawn
    g = fold(gens)
    assume(gens and rank(g) == len(gens))
    basis = nielsen_moves(rng, gens, rng.randrange(12))
    images = z_images(basis)
    expr = random_word(rng, list(images), rng.randrange(8))
    w = substitute(expr, images)
    assert express(g, basis, w) == expr


def test_express_across_the_two_bases_of_n():
    # the paper's N = ker(F2 -> Z/2 x Z/2): a graph folded from the z-basis
    # rewrites in the printed Schreier basis, and back
    z_basis = list(Z_BASIS)
    printed = [parse_word(t) for t in PRINTED_SCHREIER_BASIS]
    for graph_words, basis in ((z_basis, printed), (printed, z_basis)):
        g = fold(graph_words)
        for w in z_basis + printed:
            assert substitute(express(g, basis, w), z_images(basis)) == w


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(bouquets))
def test_labelled_fold_merges_as_the_plain_fold(drawn):
    _, gens = drawn
    assert _fold(gens, True)[0] == fold(gens).links


def test_graph_equality_survives_rank_and_express():
    basis = [parse_word(t) for t in ("a^2", "b^2", "a b a b")]
    g1, g2 = fold(basis), fold(basis)
    rank(g1)
    express(g1, basis, basis[0])
    assert g1 == g2


def counting(monkeypatch, name):
    """Count the calls of freesub's module-level `name` from here on."""
    calls = []
    inner = getattr(freesub, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(freesub, name, counted)
    return calls


def test_a_bouquet_with_no_clash_folds_without_label_products(monkeypatch):
    # no two edges at 0 share a key and every other vertex is fresh, so
    # neither fold multiplies a label
    basis = [parse_word(t) for t in ("a b^2", "c a^2 c", "a^-1 c^-3 b^-1")]
    mul_calls = counting(monkeypatch, "_mul")
    g = fold(basis)
    links, labels = _fold(tuple(basis), True)
    assert mul_calls == []
    assert links == g.links and rank(g) == 3
    # only the closing edges, into 0, carry labels
    assert labels == {(2, (B, 1)): ((1, 1),), (0, (B, -1)): ((1, -1),),
                      (5, (C, 1)): ((2, 1),), (0, (C, -1)): ((2, -1),),
                      (9, (B, -1)): ((3, 1),), (0, (B, 1)): ((3, -1),)}
    for expr in ("z[1] z[2]^-1 z[3]^2", "z[3]^-1 z[1]^3", "z[2] z[1] z[3]"):
        w = substitute(parse_word(expr), z_images(basis))
        assert express(g, basis, w) == parse_word(expr)


def test_wrong_size_basis_is_refused_on_every_call():
    g = fold([parse_word("a^2"), parse_word("b")])
    basis = [parse_word("a^2")]
    for _ in range(3):
        with pytest.raises(ValueError, match="basis size 1 != subgroup rank 2"):
            express(g, basis, parse_word("a^2"))
        assert g._labelled == {}


def test_express_checks_and_folds_each_basis_once(monkeypatch):
    graph_words = [parse_word(t) for t in ("a^2", "b^2", "a b a b")]
    g = fold(graph_words)
    rank_calls = counting(monkeypatch, "rank")
    fold_calls = counting(monkeypatch, "_fold")
    other = [graph_words[1], graph_words[0], graph_words[2]]
    for basis in (graph_words, other):
        for w in graph_words * 3:
            assert substitute(express(g, basis, w), z_images(basis)) == w
    assert len(rank_calls) == len(fold_calls) == 2
    assert [args[0] for args in fold_calls] == [tuple(graph_words), tuple(other)]


RUN_BASES = [
    ["a^3", "b^2 a b^-2"],
    ["a^3", "b^2 a b^-2", "b^5"],
    ["a^2 b^3", "b^-3 a^2 b^-4"],
    ["c^4 a^-3", "a^3 b^2 a^-3", "b^-2 c^2"],
]


@pytest.mark.parametrize("texts", RUN_BASES)
def test_run_level_reading_matches_the_oracles(texts):
    basis = [parse_word(t) for t in texts]
    g = fold(basis)
    basepoint, edges = sweep_fold(basis)
    assert list(g.edges.items()) == list(edges.items())
    assert rank(g) == len(basis)
    rng = random.Random(len(texts))
    images = z_images(basis)
    for _ in range(40):
        expr = random_word(rng, list(images), rng.randrange(7))
        member = substitute(expr, images)
        got = express(g, basis, member)
        assert got == expr and substitute(got, images) == member
        assert contains(g, member) and sweep_contains(basepoint, edges, member)
        for w in (perturbed(rng, member, [A, B, C]),
                  multiply(member, parse_word("a^2 b^-3"))):
            assert contains(g, w) == sweep_contains(basepoint, edges, w)


def test_a_word_leaving_the_graph_inside_a_run_names_that_run():
    # the graph of a^3, b^2 a b^-2 has a b-path of length 2 from the
    # basepoint and no b-edge into it, so b^3, and b^-3 read back along
    # that path, leave it at their third letter; the graph of a^2 b has
    # no a^3 from the basepoint
    for texts, word in ((("a^3", "b^2 a b^-2"), "b^3"),
                        (("a^3", "b^2 a b^-2"), "b^2 a^2 b^-3"),
                        (("a^2 b",), "a^3")):
        basis = [parse_word(t) for t in texts]
        g = fold(basis)
        w = parse_word(word)
        assert not contains(g, w)
        with pytest.raises(ValueError) as caught:
            express(g, basis, w)
        assert str(caught.value) == "word leaves the subgroup graph at %s" % (
            w.runs[-1][0])
