"""Concrete group models with computable normal forms.

Each model knows how to multiply, invert, and produce its identity; elements
are plain values (ints, tuples, words, ...) whose equality is normal-form
equality.  Words in presentation generators are evaluated into a model via an
assignment of generator images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import garside
from .intlin import IntMatrix, mat_pow, matrix
from .words import IDENTITY, Gen, Word, invert, multiply, substitute


class GroupModel:
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        out = self.identity()
        while k:
            out = self.mul(out, a)
            k -= 1
        return out

    def eval_word(self, assignment: dict[Gen, object], w: Word):
        out = self.identity()
        for g, e in w.runs:
            if g not in assignment:
                raise ValueError("no image assigned for generator %s" % g)
            out = self.mul(out, self.pow(assignment[g], e))
        return out


@dataclass(frozen=True)
class CyclicZ(GroupModel):
    """Z if modulus == 0, else Z/modulus."""

    modulus: int

    def identity(self):
        return 0

    def mul(self, a, b):
        c = a + b
        return c % self.modulus if self.modulus else c

    def inv(self, a):
        return (-a) % self.modulus if self.modulus else -a


@dataclass(frozen=True)
class FiniteTable(GroupModel):
    """A finite group given by its full multiplication table."""

    elements: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]  # table[i][j] = elements[i] * elements[j]

    def __post_init__(self):
        self.validate()

    def _idx(self, a: str) -> int:
        return self.elements.index(a)

    def identity(self):
        for i, e in enumerate(self.elements):
            if all(self.table[i][j] == x for j, x in enumerate(self.elements)):
                return e
        raise ValueError("no identity element")

    def mul(self, a, b):
        return self.table[self._idx(a)][self._idx(b)]

    def inv(self, a):
        e = self.identity()
        i = self._idx(a)
        for j, b in enumerate(self.elements):
            if self.table[i][j] == e:
                return b
        raise ValueError("no inverse for %s" % a)

    def validate(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate element names")
        for row in self.table:
            for x in row:
                if x not in elems:
                    raise ValueError("table entry %r not an element" % x)
        self.identity()
        for a in self.elements:
            self.inv(a)
        if len(self.elements) <= 24:
            for a in self.elements:
                for b in self.elements:
                    for c in self.elements:
                        if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                            raise ValueError("non-associative at (%s,%s,%s)" % (a, b, c))


@dataclass(frozen=True)
class DirectProduct(GroupModel):
    factors: tuple[GroupModel, ...]

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))


@dataclass(frozen=True)
class SemidirectAbelianByCyclic(GroupModel):
    """Z^dim semidirect a cyclic group, the cyclic generator acting by `action`.

    Elements (v, k); (v1,k1)(v2,k2) = (v1 + action^k1 v2, k1+k2).
    """

    dim: int
    modulus: int
    action: IntMatrix

    def identity(self):
        return ((0,) * self.dim, 0)

    def _act(self, k, v):
        m = mat_pow(self.action, k % self.modulus if self.modulus else k)
        return tuple(sum(m[i, j] * v[j] for j in range(self.dim)) for i in range(self.dim))

    def mul(self, a, b):
        (v1, k1), (v2, k2) = a, b
        k = k1 + k2
        if self.modulus:
            k %= self.modulus
        return (tuple(x + y for x, y in zip(v1, self._act(k1, v2))), k)

    def inv(self, a):
        v, k = a
        ki = (-k) % self.modulus if self.modulus else -k
        return (tuple(-x for x in self._act(ki, v)), ki)


@dataclass(frozen=True)
class FreeAutomorphism:
    """An automorphism of a free group, by generator images (plus, optionally,
    the images under the inverse automorphism)."""

    images: dict[Gen, Word]
    inverse_images: Optional[dict[Gen, Word]] = None

    def apply(self, w: Word) -> Word:
        return substitute(w, self.images)

    def inverse(self) -> "FreeAutomorphism":
        if self.inverse_images is None:
            raise ValueError("no inverse images declared for this automorphism")
        return FreeAutomorphism(self.inverse_images, self.images)


def act_on_finite(actions: dict[Gen, dict[str, str]], w: Word, h: str) -> str:
    """Apply the action of a free-group word to a finite-group element, each
    free generator acting by a permutation (dict) of element names; the word
    acts covariantly, so its last letter is applied first."""
    for g, sign in reversed(list(w.letters())):
        perm = actions[g]
        if sign < 0:
            perm = {v: k for k, v in perm.items()}
        h = perm[h]
    return h


@dataclass(frozen=True)
class SemidirectFiniteByFree(GroupModel):
    """A finite group semidirect a free group; the action maps each free
    generator to a permutation (dict) of the finite group's elements."""

    finite: FiniteTable
    g_gens: tuple[Gen, ...]
    actions: dict[Gen, dict[str, str]] = field(hash=False)

    def identity(self):
        return (self.finite.identity(), IDENTITY)

    def mul(self, a, b):
        (h1, g1), (h2, g2) = a, b
        return (self.finite.mul(h1, act_on_finite(self.actions, g1, h2)),
                multiply(g1, g2))

    def inv(self, a):
        h, g = a
        gi = invert(g)
        return (self.finite.inv(act_on_finite(self.actions, gi, h)), gi)


@dataclass(frozen=True)
class GarsideBraidGroup(GroupModel):
    """Braid group B_n with elements in Garside normal form; products and
    inverses are computed on normal forms, never through words."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")

    def identity(self):
        return garside.BraidNF(self.n, 0, ())

    def mul(self, a, b):
        return garside.nf_mul(a, b)

    def inv(self, a):
        return garside.nf_inv(a)

    def from_word(self, w: Word):
        return garside.normal_form(w, self.n)


def finite_closure(model: GroupModel, seeds, budget: int = 20000) -> set:
    """Closure of the seeds under multiplication and inversion."""
    todo = list(seeds) + [model.identity()]
    seen = set(todo)
    while todo:
        a = todo.pop()
        for b in [model.inv(a)] + [model.mul(a, c) for c in list(seen)] \
                + [model.mul(c, a) for c in list(seen)]:
            if b not in seen:
                seen.add(b)
                todo.append(b)
                if len(seen) > budget:
                    raise ValueError("closure exceeded budget %d" % budget)
    return seen


# ---------------------------------------------------------------------------
# stock models

def q8() -> FiniteTable:
    """Quaternion group of order 8 on x, y (with x^2 = y^2 central)."""
    units = {"1": (1, "1"), "x": (1, "i"), "y": (1, "j"), "xy": (1, "k")}
    names = {}
    for nm, (sg, u) in units.items():
        names[(sg, u)] = nm
        names[(-sg, u)] = "-" + nm if nm != "1" else "-1"
    quat = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}

    def mul(a, b):
        sa, ua = a
        sb, ub = b
        sc, uc = quat[(ua, ub)]
        return (sa * sb * sc, uc)

    elements = tuple(names[key] for key in sorted(names, key=lambda k: (k[1], -k[0])))
    inv_names = {v: k for k, v in names.items()}
    table = tuple(tuple(names[mul(inv_names[a], inv_names[b])] for b in elements)
                  for a in elements)
    return FiniteTable(elements, table)


def automorphism_from_images(table: FiniteTable, gen_images: dict[str, str]) -> dict[str, str]:
    """Extend images of a generating set multiplicatively to a permutation of
    the whole finite group.  Each element is first expressed as a word in the
    generators (breadth-first), then mapped."""
    gens = list(gen_images)
    ident = table.identity()
    expr = {ident: []}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = table.mul(a, g)
                if b not in expr:
                    expr[b] = expr[a] + [g]
                    nxt.append(b)
        frontier = nxt
    if len(expr) != len(table.elements):
        raise ValueError("images do not generate the group")
    out = {}
    for a, word in expr.items():
        img = ident
        for g in word:
            img = table.mul(img, gen_images[g])
        out[a] = img
    if len(set(out.values())) != len(out):
        raise ValueError("generator images do not define a bijection")
    for a in table.elements:
        for b in table.elements:
            if out[table.mul(a, b)] != table.mul(out[a], out[b]):
                raise ValueError("generator images do not define a homomorphism")
    return out


def z2z6_model() -> SemidirectAbelianByCyclic:
    return SemidirectAbelianByCyclic(2, 6, matrix([[0, 1], [-1, 1]]))


def q8_semidirect_f2() -> SemidirectFiniteByFree:
    """Q8 semidirect the free group on a, b; a and b act by the automorphisms
    x -> y, y -> xy and x -> yx, y -> x respectively."""
    t = q8()
    yx = t.mul("y", "x")
    act_a = automorphism_from_images(t, {"x": "y", "y": "xy"})
    act_b = automorphism_from_images(t, {"x": yx, "y": "x"})
    a, b = Gen("a"), Gen("b")
    return SemidirectFiniteByFree(t, (a, b), {a: act_a, b: act_b})
