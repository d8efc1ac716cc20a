"""Lower central series machinery.

Abelianization of presentations; the second lower central quotient of a
group with cyclic abelianization (finite or Z), which is trivial because
Lambda^2 of a cyclic group is 0, so only G^ab and G^ab modulo the chosen
generator are checked, both from one read of the relators; windowed
coinvariants of Z-indexed presentations, whose relation rows are each
relator family's row read once and shifted, with no instance built; closed
form rank formulas for two free-by-cyclic style lower central series.  The
concrete systems that the verification suite checks are frozen in
`verify`.  `presentations` is imported for annotations only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Callable

from .intlin import IntMatrix, abelian_invariants, mat_pow, matrix
from .words import Gen, relation_rows

if TYPE_CHECKING:
    from .presentations import IndexedPresentation, Presentation


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must exceed 1")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " x ".join(parts) if parts else "1"


def abelianization(p: Presentation) -> AbelianInvariants:
    """Abelian invariants of the relators' sparse relation rows."""
    return AbelianInvariants(*abelian_invariants(
        relation_rows(p.relators, p.generators), len(p.generators)))


def gamma2_mod_gamma3(p: Presentation, t: Gen) -> AbelianInvariants:
    """Second lower central quotient Gamma_2/Gamma_3 of a group G with cyclic
    abelianization: always trivial.

    The commutator map x ^ y -> [x, y] Gamma_3 takes Lambda^2(G^ab) onto
    Gamma_2/Gamma_3 (Magnus, Karrass and Solitar, *Combinatorial Group
    Theory*, ch. 5), and Lambda^2 of a cyclic group is 0.  So Gamma_2 =
    Gamma_3, hence Gamma_k = Gamma_2 for every k >= 2, as for B_n(S^2) with
    G^ab = Z/2(n-1), for Gorin-Lin's B_n with G^ab = Z and for a perfect
    group (G^ab = Z/1).

    Checked, in this order: G^ab is cyclic (finite or Z), t is a generator
    of p, and t generates G^ab, that is, G^ab modulo t is trivial.  If t maps
    to q in Z/m, G^ab modulo t has order gcd(q, m), which the error names
    mod m; if t maps to q in Z, the error names |q|."""
    rows = relation_rows(p.relators, p.generators)
    ab = AbelianInvariants(*abelian_invariants(rows, len(p.generators)))
    if ab.free_rank + len(ab.torsion) > 1:
        raise ValueError("abelianization %s is not cyclic" % ab)
    if t not in p.generators:
        raise ValueError("transversal %s is not a generator of %s" % (t, p.name))
    quotient = AbelianInvariants(*abelian_invariants(
        rows + [{p.generators.index(t): 1}], len(p.generators)))
    if quotient != AbelianInvariants(0, ()):
        # t maps to q in Z/m (m = 0 for Z), so the quotient is Z/gcd(q, m);
        # it is all of G^ab exactly when q = 0, named 0
        order = 0 if quotient == ab else prod(quotient.torsion)
        raise ValueError("transversal %s maps to %d in %s and does not "
                         "generate it" % (t, order, ab))
    return AbelianInvariants(0, ())


@dataclass(frozen=True)
class WindowedInvariants:
    invariants: AbelianInvariants
    stable: bool


def _window_rows(ip: IndexedPresentation,
                 window: int) -> tuple[list[dict[int, int]], int]:
    """The relation rows of ip.instantiate(window), in order, and its
    generator count, with no instance built.  The column of f@j is
    len(fixed) + index(f)(2K+1) + j + K, as in `instantiate`.  A relator
    family is summed once, into the columns of its first instance, and each
    later instance shifts its family columns by one; fixed relators and
    family words with no family letter go through `relation_rows`."""
    gens = tuple(ip.fixed_generators) + tuple(
        Gen(f, (k,)) for f in ip.families for k in range(-window, window + 1))
    if len(set(gens)) < len(gens):
        dup = next(g for n, g in enumerate(gens) if g in gens[:n])
        raise ValueError("duplicate generator %s in %s[K=%d]" % (dup, ip.name, window))
    if not all(ip.fixed_relators):
        raise ValueError("empty relator in %s[K=%d]" % (ip.name, window))
    fixed = {g: i for i, g in enumerate(ip.fixed_generators)}
    start = {f: len(fixed) + n * (2 * window + 1) for n, f in enumerate(ip.families)}
    rows = relation_rows(ip.fixed_relators, gens)
    for w in ip.relator_families:
        offsets = [g.indices[0] for g, _ in w.runs if g.name in start]
        if not offsets:
            rows += relation_rows((w,) if w else (), gens)
            continue
        # with offsets o, all indices k + o lie in [-K, K] exactly for the
        # 2K + 1 - (max o - min o) instances from k = -K - min o on
        lo, count = min(offsets), 2 * window + 1 - max(offsets) + min(offsets)
        row: dict[int, int] = {}
        for g, e in w.runs if count > 0 else ():
            c = start[g.name] + g.indices[0] - lo if g.name in start else fixed.get(g)
            if c is None:
                raise ValueError("undeclared generator %s in %s" % (g, ip.name))
            row[c] = row.get(c, 0) + e
        rows += ({c + k if c >= len(fixed) else c: e for c, e in row.items() if e}
                 for k in range(count))
    return rows, len(gens)


def windowed_coinvariants(ip: IndexedPresentation,
                          window: int) -> WindowedInvariants:
    """Abelian invariants of the presentation instantiated over the window
    [-K, K], from its relation rows (`_window_rows`); no instance word or
    presentation is built.  Stable when windows K and K+1 agree."""
    if window < 2:
        raise ValueError("window must be >= 2")
    here, nxt = (AbelianInvariants(*abelian_invariants(*_window_rows(ip, k)))
                 for k in (window, window + 1))
    return WindowedInvariants(here, here == nxt)


# ---------------------------------------------------------------------------
# closed-form lower central series ranks

_M = matrix([[0, -1], [-1, 1]])


def _trace(m: IntMatrix) -> int:
    return sum(m[i, i] for i in range(m.nrows))


def alpha_k(k: int) -> Fraction:
    if k < 2:
        raise ValueError("need k >= 2")
    return Fraction(_trace(mat_pow(_M, k)) - 1, k)


def _mobius(n: int) -> int:
    """The Moebius function, by trial division."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _divisor_sum(n: int, k_alpha) -> Fraction:
    total = Fraction(0)
    for k in range(2, n + 1):
        if n % k == 0:
            total += _mobius(n // k) * k_alpha(k)
    return total / n


def _lcs_rank(i: int, first_j: int,
              k_alpha: Callable[[int], Fraction]) -> int:
    """The rank sum over j = first_j .. i-2 of the divisor sums of i - j."""
    if i < 2:
        raise ValueError("need i >= 2")
    total = sum((_divisor_sum(i - j, k_alpha) for j in range(first_j, i - 1)),
                Fraction(0))
    if total.denominator != 1:
        raise ValueError("non-integral rank at i=%d: %s" % (i, total))
    return int(total)


def lcs_rank_z2_free(i: int) -> int:
    """Rank of the i-th lower central quotient of the two-generator group
    with a single commuting-square relation (free-by-infinite-cyclic with
    monodromy of trace 1)."""
    return _lcs_rank(i, 0, lambda k: k * alpha_k(k))


def lcs_rank_torus(i: int) -> int:
    """Rank of the i-th lower central quotient in the torus case, where
    k alpha_k = 2^k + 2(-1)^k and the outer sum starts at j = 1."""
    return _lcs_rank(i, 1, lambda k: 2 ** k + 2 * (-1) ** k)
