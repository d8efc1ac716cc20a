"""Left greedy normal form for Artin braid groups.

A braid on n strands is represented as Delta^p * A_1 * ... * A_k where Delta
is the positive half twist and the A_i are permutation braids forming a
left-weighted sequence (no factor equal to Delta or the identity).  Equality
of braid words reduces to equality of normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Gen, Word, free_reduce

# permutations are tuples p with p[i] = final position of the strand that
# starts at position i (0-based)


def _perm_id(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _perm_delta(n: int) -> tuple[int, ...]:
    return tuple(n - 1 - i for i in range(n))


def _perm_s(i: int, n: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _perm_mul(a, b):
    """Permutation of the braid (A then B)."""
    return tuple(b[a[i]] for i in range(len(a)))


def _perm_inv(p):
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def _tau(p):
    """Conjugation by Delta: tau(P) = Delta P Delta^-1 as a permutation braid."""
    d = _perm_delta(len(p))
    return _perm_mul(_perm_mul(d, p), d)


def _starting_set(p) -> set[int]:
    """Generators s_i that are left divisors of the permutation braid P."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def _finishing_set(p) -> set[int]:
    return _starting_set(_perm_inv(p))


@dataclass(frozen=True)
class BraidNF:
    """Garside left normal form: infimum power of Delta plus permutation factors."""

    n: int
    power: int
    factors: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors

    def __str__(self) -> str:
        parts = []
        if self.power:
            parts.append("D^%d" % self.power)
        for f in self.factors:
            parts.append("<" + " ".join(str(i + 1) for i in f) + ">")
        return " ".join(parts) if parts else "1"


def _left_weight(factors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Slide letters left until every adjacent pair (A, B) has S(B) ⊆ F(A)."""
    n = len(factors[0]) if factors else 0
    changed = True
    while changed:
        changed = False
        for j in range(len(factors) - 1):
            a, b = factors[j], factors[j + 1]
            move = _starting_set(b) - _finishing_set(a)
            while move:
                i = min(move)
                si = _perm_s(i, n)
                a = _perm_mul(a, si)
                b = _perm_mul(si, b)
                changed = True
                move = _starting_set(b) - _finishing_set(a)
            factors[j], factors[j + 1] = a, b
    return factors


def normal_form(word: Word, n: int) -> BraidNF:
    """Normal form of a braid word in generators s[1]..s[n-1]."""
    if n < 2:
        raise ValueError("need n >= 2")
    ident = _perm_id(n)
    delta = _perm_delta(n)
    power = 0
    factors: list[tuple[int, ...]] = []
    for g, sign in word.letters():
        i = _gen_index(g, n)
        if sign > 0:
            factors.append(_perm_s(i, n))
        else:
            # s_i^-1 = Delta^-1 * (Delta s_i^-1); push Delta^-1 to the front
            power -= 1
            factors = [_tau(f) for f in factors]
            factors.append(_perm_mul(delta, _perm_s(i, n)))
    # normalize
    while True:
        factors = [f for f in factors if f != ident]
        if factors:
            factors = _left_weight(factors)
        # absorb interior Delta factors into the power
        idx = next((j for j, f in enumerate(factors) if f == delta), None)
        if idx is None:
            factors = [f for f in factors if f != ident]
            break
        power += 1
        factors = [_tau(f) for f in factors[:idx]] + factors[idx + 1:]
    return BraidNF(n, power, tuple(factors))


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
    p = _perm_id(n)
    for g, sign in word.letters():
        i = _gen_index(g, n)
        p = _perm_mul(p, _perm_s(i, n))
    return tuple(v + 1 for v in p)


def _perm_braid_word(p) -> list[tuple[Gen, int]]:
    """Write a permutation braid as a positive word (bubble sort)."""
    n = len(p)
    q = list(p)
    word = []
    while q != sorted(q):
        for i in range(n - 1):
            if q[i] > q[i + 1]:
                word.append((Gen("s", (i + 1,)), 1))
                q[i], q[i + 1] = q[i + 1], q[i]
                break
    return word


def nf_to_word(nf: BraidNF) -> Word:
    """A braid word representing the normal form (Delta as a positive word)."""
    runs: list[tuple[Gen, int]] = []
    delta_word = _perm_braid_word(_perm_delta(nf.n))
    if nf.power >= 0:
        runs.extend(delta_word * nf.power)
    else:
        inv = [(g, -e) for g, e in reversed(delta_word)]
        runs.extend(inv * (-nf.power))
    for f in nf.factors:
        runs.extend(_perm_braid_word(f))
    return free_reduce(runs)
