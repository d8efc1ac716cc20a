"""Left greedy normal form for Artin braid groups.

A braid on n strands is represented as Delta^p * A_1 * ... * A_k where Delta
is the positive half twist and the A_i are permutation braids (simple
elements) forming a left-weighted sequence: no factor is Delta or the
identity, and every adjacent pair (A, B) has S(B) ⊆ F(A), where the starting
set S and the finishing set F hold the generators that divide a simple
element on the left and on the right.  The form is unique, so equality of
braid words reduces to equality of normal forms.

The form is built incrementally, by left-greedy multiplication (Epstein et
al., *Word Processing in Groups*, ch. 9; El-Rifai and Morton, "Algorithms
for positive braids", 1994).  A word is read in blocks, each a longest run
of same-sign letters whose product is simple (each letter crosses two
strands the block has not crossed yet), and each block is one simple
element.  Multiplying on the right by a simple element X appends X and
repairs adjacent pairs from right to left.  A pair (A, B) is repaired in
one step: the left meet M of the right complement A^-1 Delta and B moves
from B to A as (A M, M^-1 B).  Everything the repair needs is read off the
one permutation A^-1, computed once per pair: whether B and the complement
share a descent, and the strand order that builds M^-1; the complement
itself is never formed.  The pass stops at the first pair that does not
change, since every pair left of it is unchanged and still left-weighted;
by the domino rule the pairs it did repair are left-weighted too.  A Delta
factor can only arise at the front, where it joins the power, and an
identity factor only at the end, where it is dropped.

Within one `normal_form` the same pairs come up again and again (of the
pairs met in the normal form of a random word of 120 letters, 30 % were met
before in it at n = 8, and 75 % at n = 4; 44 % and 87 % when each letter was
appended alone), and so do they across the products of one homomorphism
check.  So repairs go through a memo, a dict from each pair met to its
repair, or to None for a pair that was left-weighted.  A repair is a pure
function of its pair, so one memo may serve any products on n strands;
keyed by pairs of permutations, it holds at most (n!)^2 entries.
`normal_form`, `nf_product`, `nf_mul` and `nf_inv` each take one as an
optional argument.  Without it `normal_form` keeps a dict of its own that
dies with the call, and the other three repair without a memo (for one
short product a memo of its own measured slightly slower).
`models.GarsideBraidGroup` keeps one memo for as long as the model lives and
passes it to all four, so its hom checks repair each distinct pair once.

A negative block s_j1^-1 ... s_jr^-1 is Delta^-1 (Delta P^-1) with P the
simple s_jr ... s_j1; the permutation of Delta P^-1 is that of the block's
letters, read as swaps, reversed.  Moving Delta^-1 to the front conjugates
every factor before it by Delta, the automorphism tau of the simple
elements (tau(s_i) = s_(n-i)).  Rather than rewriting the stored factors,
the construction keeps a parity bit: the stored factors are tau^parity of
the true ones, each block's letters are mirrored into the frame it is
stored in, and tau is applied once at the end.  The repair is the same in
the twisted frame because tau preserves left-weightedness.  A product of
normal forms (`nf_product`) counts the parity from the other end: knowing
every operand's power before it starts, it stores each operand's factors
in the frame of the powers after it, so each factor is twisted at most
once, when appended, and the frame at the end is the true one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Gen, Word, free_reduce, invert_runs

# permutations are tuples p with p[i] = final position of the strand that
# starts at position i (0-based)


def _perm_id(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _perm_delta(n: int) -> tuple[int, ...]:
    return tuple(n - 1 - i for i in range(n))


def _cross(p: list, q: list, i: int) -> None:
    """Swap the strands at positions i-1 and i, in place, in p (strand to
    position) and q = p^-1 (position to strand): the letter s_i."""
    a, b = q[i - 1], q[i]
    q[i - 1], q[i] = b, a
    p[a], p[b] = i, i - 1


def _perm_inv(p):
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def _tau(p):
    """Conjugation by Delta: tau(P) = Delta P Delta^-1 as a permutation braid."""
    top = len(p) - 1
    return tuple(top - p[top - i] for i in range(len(p)))


def _complement(p):
    """Right complement A^-1 Delta of a permutation braid A."""
    top = len(p) - 1
    return tuple(top - i for i in _perm_inv(p))


def _meet(ai, b):
    """Left meet M of the complement C = A^-1 Delta and the permutation braid
    B, given ai = A^-1, as the list M^-1 (strands by final position).  The
    uncrossed strand pairs of M are the transitive closure of those that C
    or B leaves uncrossed, so each strand, inserted from the right, goes in
    front of the first one C or B leaves uncrossed with it.  C[j] < C[k]
    exactly when ai[j] > ai[k], so C itself is never built."""
    order: list[int] = []
    for j in range(len(b) - 1, -1, -1):
        aj, bj = ai[j], b[j]
        pos = 0
        for k in order:
            if aj > ai[k] or bj < b[k]:
                break
            pos += 1
        order.insert(pos, j)
    return order


def _weight_pair(a, b):
    """A B as a left-weighted pair A' B' (the same objects if it is one).
    S(B) ⊆ F(A) fails iff B and C = A^-1 Delta share a generator left
    divisor s_i, that is, iff b[i-1] > b[i] and ai[i-1] < ai[i] for some i,
    where ai = A^-1; then their meet M moves from B to A, and A M is the
    greatest simple left divisor of A B."""
    ai = _perm_inv(a)
    for i in range(1, len(b)):
        if b[i - 1] > b[i] and ai[i - 1] < ai[i]:
            break
    else:
        return a, b
    order = _meet(ai, b)
    m = _perm_inv(order)
    return tuple(map(m.__getitem__, a)), tuple(map(b.__getitem__, order))


def _append(factors: list, x, ident, memo: dict | None = None) -> None:
    """Right-multiply a left-weighted sequence by the simple element x, in
    place: append x and repair pairs from right to left.  The memo, if
    given, maps each pair (A, B) met before to its repair, or to None when
    it was left-weighted, where the pass stops; a lookup that returns the
    key itself is a pair not met yet."""
    factors.append(x)
    j = len(factors) - 2
    while j >= 0:
        key = (factors[j], factors[j + 1])
        pair = key if memo is None else memo.get(key, key)
        if pair is key:
            pair = _weight_pair(*key)
            if pair[0] is key[0]:
                pair = None
            if memo is not None:
                memo[key] = pair
        if pair is None:
            break
        factors[j], factors[j + 1] = pair
        j -= 1
    while factors and factors[-1] == ident:
        factors.pop()


def _finish(n: int, power: int, factors: list, twisted: bool) -> "BraidNF":
    """Absorb the leading Delta factors into the power and undo the twist."""
    delta = _perm_delta(n)
    k = 0
    while k < len(factors) and factors[k] == delta:
        k += 1
    rest = factors[k:]
    if twisted:
        rest = [_tau(f) for f in rest]
    return BraidNF(n, power + k, tuple(rest))


@dataclass(frozen=True)
class BraidNF:
    """Garside left normal form: infimum power of Delta plus permutation factors."""

    n: int
    power: int
    factors: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        parts = []
        if self.power:
            parts.append("D^%d" % self.power)
        for f in self.factors:
            parts.append("<" + " ".join(str(i + 1) for i in f) + ">")
        return " ".join(parts) if parts else "1"


def normal_form(word: Word, n: int, memo: dict | None = None) -> BraidNF:
    """Normal form of a braid word in generators s[1]..s[n-1]; pair repairs
    go through `memo`, or through a dict of this call's own."""
    if n < 2:
        raise ValueError("need n >= 2")
    ident = _perm_id(n)
    power = 0
    twisted = False
    factors: list[tuple[int, ...]] = []
    if memo is None:
        memo = {}
    sign, p, q = 0, None, None  # the open block: sign, permutation, inverse
    for g, e in word.runs:
        i = _gen_index(g, n)
        s = 1 if e > 0 else -1
        for _ in range(abs(e)):
            j = n - i if twisted else i
            if s != sign or q[j - 1] > q[j]:  # other sign, or strands crossed
                if sign:  # a negative block's simple Delta P^-1 is p reversed
                    _append(factors, tuple(p[::sign]), ident, memo)
                if s < 0:
                    # the block is Delta^-1 (Delta P^-1); Delta^-1 moves to the front
                    power -= 1
                    twisted = not twisted
                    j = n - j
                sign, p, q = s, list(ident), list(ident)
            _cross(p, q, j)
    if sign:
        _append(factors, tuple(p[::sign]), ident, memo)
    return _finish(n, power, factors, twisted)


def nf_product(n: int, operands, memo: dict | None = None) -> BraidNF:
    """The normal form of the product of `operands`, normal forms on n
    strands (not checked here), built as one left-weighted sequence: each
    operand's factors are appended in the tau frame of the Delta powers of
    the operands after it (see the module docstring)."""
    twisted = sum(x.power for x in operands) % 2
    ident = _perm_id(n)
    power = 0
    factors: list[tuple[int, ...]] = []
    for x in operands:
        power += x.power
        twisted ^= x.power % 2
        for f in x.factors:
            _append(factors, _tau(f) if twisted else f, ident, memo)
    return _finish(n, power, factors, False)


def nf_mul(a: BraidNF, b: BraidNF, memo: dict | None = None) -> BraidNF:
    """Product of two normal forms: Delta^(p+q) tau^q(A_1..A_k), then each
    B_j appended."""
    if a.n != b.n:
        raise ValueError("braids on %d and %d strands" % (a.n, b.n))
    return nf_product(a.n, (a, b), memo)


def nf_inv(a: BraidNF, memo: dict | None = None) -> BraidNF:
    """Inverse of a normal form: Delta^(-p-k) times the complements
    tau^(p+i)(A_i^-1 Delta) for i = k..1."""
    k = len(a.factors)
    factors: list[tuple[int, ...]] = []
    ident = _perm_id(a.n)
    for i in range(k, 0, -1):
        c = _complement(a.factors[i - 1])
        _append(factors, _tau(c) if (a.power + i) % 2 else c, ident, memo)
    return _finish(a.n, -a.power - k, factors, False)


def _gen_index(g: Gen, n: int) -> int:
    if g.name != "s" or len(g.indices) != 1:
        raise ValueError("braid words use generators s[i]; got %s" % g)
    i = g.indices[0]
    if not 1 <= i <= n - 1:
        raise ValueError("generator %s out of range for %d strands" % (g, n))
    return i


def braid_equal(w1: Word, w2: Word, n: int) -> bool:
    return normal_form(w1, n) == normal_form(w2, n)


def permutation(word: Word, n: int) -> tuple[int, ...]:
    """Underlying permutation, 1-based: entry k is the end position of strand k."""
    p, q = list(range(n)), list(range(n))
    for g, e in word.runs:
        i = _gen_index(g, n)
        if e % 2:
            _cross(p, q, i)
    return tuple(v + 1 for v in p)


def _perm_braid_word(p) -> list[tuple[Gen, int]]:
    """Write a permutation braid as a positive word: one insertion-sort
    pass, swapping positions i-1 and i for the letter s_i, which always
    swaps the leftmost descent."""
    q = list(p)
    word = []
    for j in range(1, len(q)):
        i = j
        while i and q[i - 1] > q[i]:
            word.append((Gen("s", (i,)), 1))
            q[i - 1], q[i] = q[i], q[i - 1]
            i -= 1
    return word


def nf_to_word(nf: BraidNF) -> Word:
    """A braid word representing the normal form (Delta as a positive word)."""
    runs: list[tuple[Gen, int]] = []
    if nf.power:
        delta_word = _perm_braid_word(_perm_delta(nf.n))
        if nf.power < 0:
            delta_word = invert_runs(delta_word)
        runs.extend(delta_word * abs(nf.power))
    for f in nf.factors:
        runs.extend(_perm_braid_word(f))
    return free_reduce(runs)
