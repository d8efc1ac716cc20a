"""Concrete group models with computable normal forms.

Each model knows how to multiply, invert, and produce its identity; elements
are plain values (ints, tuples, words, ...) whose equality is normal-form
equality.  Each model also reads and writes its elements as text (`parse`,
`text`), in the syntax of hom-check's `--assign` files.  Words in
presentation generators are evaluated into a model via an assignment of
generator images.  A semidirect product carries its action (`Product.act`):
each stock one, such as `q8_semidirect_f2`, is where its action is stated,
and `hat_subgroup` takes the normal closure of its twisted commutators in a
finite normal part.  Q8 is stated by its rule, the elements +-x^a y^b
with y x = -x y and x^2 = y^2 = -1 (`q8`).  `target` names the stock
models that hom-check and verify map into.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from . import garside
from .garside import nf_to_word
from .words import IDENTITY, Gen, Word, invert, multiply, parse_word, word_to_text


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s %r is not an integer" % (what, text.strip())) from None


class GroupModel:
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, text: str):
        """The element that `text` writes; ValueError if it writes none."""
        raise NotImplementedError

    def text(self, a) -> str:
        """`a` in the syntax that `parse` reads."""
        return str(a)

    def eval_word(self, assignment: dict[Gen, object], w: Word):
        """The product of the letters' images: each letter multiplies by its
        generator's image, or by that image's inverse, taken once per run."""
        out = self.identity()
        for g, e in w.runs:
            if g not in assignment:
                raise ValueError("no image assigned for generator %s" % g)
            image = assignment[g] if e > 0 else self.inv(assignment[g])
            for _ in range(abs(e)):
                out = self.mul(out, image)
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

    def parse(self, text):
        name = "Z/%d" % self.modulus if self.modulus else "Z"
        return self.mul(0, _integer(text, "%s element" % name))


@dataclass(frozen=True)
class FreeAbelian(GroupModel):
    """Z^dim, elements as integer tuples written (a, b, ...)."""

    dim: int

    def identity(self):
        return (0,) * self.dim

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def parse(self, text):
        entries = tuple(_integer(x, "vector %r entry" % text.strip())
                        for x in text.strip("() ").split(","))
        if len(entries) != self.dim:
            raise ValueError("vector %r needs %d entries, has %d"
                             % (text.strip(), self.dim, len(entries)))
        return entries

    def text(self, a):
        return "(%s)" % ", ".join(map(str, a))


@dataclass(frozen=True)
class FreeGroup(GroupModel):
    """The free group on the generators its words use."""

    def identity(self):
        return IDENTITY

    def mul(self, a, b):
        return multiply(a, b)

    def inv(self, a):
        return invert(a)

    def parse(self, text):
        return parse_word(text)


@dataclass(frozen=True)
class FiniteTable(GroupModel):
    """A finite group given by its full multiplication table, its elements
    their names.  The table is checked once, when built (n x n over the names,
    associative, a two-sided identity, inverses), and the product map on pairs
    of names, the identity and the inverses are read off then.  They are kept
    outside the fields: equality, hash and repr are those of (elements, table)."""

    elements: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]  # table[i][j] = elements[i] * elements[j]

    def __post_init__(self):
        elems, n = self.elements, len(self.elements)
        names = set(elems)
        if len(names) != n:
            raise ValueError("duplicate element names")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table is not %d x %d" % (n, n))
        product = {(a, b): x for a, row in zip(elems, self.table)
                   for b, x in zip(elems, row)}
        for x in product.values():
            if x not in names:
                raise ValueError("table entry %r not an element" % x)
        for a, b, c in itertools.product(elems, repeat=3):
            if product[product[a, b], c] != product[a, product[b, c]]:
                raise ValueError("non-associative at (%s,%s,%s)" % (a, b, c))
        identity = next((e for e in elems
                         if all(product[e, x] == x == product[x, e] for x in elems)), None)
        if identity is None:
            raise ValueError("no identity element")
        inverse = {a: b for (a, b), x in product.items() if x == identity}
        for a in elems:
            if a not in inverse:
                raise ValueError("no inverse for %s" % a)
        self.__dict__.update(_product=product, _identity=identity, _inverse=inverse)

    def parse(self, text):
        name = text.strip()
        if name not in self.elements:
            raise ValueError("unknown element %r; known: %s"
                             % (name, " ".join(self.elements)))
        return name

    def identity(self):
        return self._identity

    def mul(self, a, b):
        return self._product[a, b]

    def inv(self, a):
        return self._inverse[a]


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
class GarsideBraidGroup(GroupModel):
    """Braid group B_n with elements in Garside normal form; products and
    inverses are computed on normal forms, never through words.  The model
    keeps one memo of pair repairs (see `garside`) for all its products,
    inverses and normal forms: a repair is a pure function of the pair, so
    sharing it changes no result, and it holds at most (n!)^2 entries.  It
    is outside equality, hash and repr, which are those of n."""

    n: int
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")

    def identity(self):
        return garside.BraidNF(self.n, 0, ())

    def mul(self, a, b):
        return garside.nf_mul(a, b, self._memo)

    def inv(self, a):
        return garside.nf_inv(a, self._memo)

    def from_word(self, w: Word):
        return garside.normal_form(w, self.n, self._memo)

    def eval_word(self, assignment: dict[Gen, object], w: Word):
        """The product of the letters' images, built as one normal form
        (`garside.nf_product`) rather than one product per letter."""
        operands = []
        for g, e in w.runs:
            if g not in assignment:
                raise ValueError("no image assigned for generator %s" % g)
            image = assignment[g]
            if image.n != self.n:
                raise ValueError("braids on %d and %d strands" % (self.n, image.n))
            operands += [image if e > 0 else self.inv(image)] * abs(e)
        return garside.nf_product(self.n, operands, self._memo)

    def parse(self, text):
        return self.from_word(parse_word(text))

    def text(self, a):
        return word_to_text(nf_to_word(a))


@dataclass(frozen=True)
class Product(GroupModel):
    """The product of a normal subgroup model and a quotient model, written
    NORMAL;QUOTIENT.  The quotient acts on the normal part by `act(q, n)`,
    a left action by automorphisms, so

        (n1, q1)(n2, q2) = (n1 act(q1, n2), q1 q2);

    with no action the product is direct."""

    normal: GroupModel
    quotient: GroupModel
    act: Optional[Callable] = field(default=None, compare=False)

    def identity(self):
        return (self.normal.identity(), self.quotient.identity())

    def mul(self, a, b):
        (n1, q1), (n2, q2) = a, b
        if self.act is not None:
            n2 = self.act(q1, n2)
        return (self.normal.mul(n1, n2), self.quotient.mul(q1, q2))

    def inv(self, a):
        n, q = a
        qi = self.quotient.inv(q)
        ni = self.normal.inv(n)
        return (ni if self.act is None else self.act(qi, ni), qi)

    def parse(self, text):
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError("image %r needs exactly one ';'" % text)
        return (self.normal.parse(parts[0]), self.quotient.parse(parts[1]))

    def text(self, a):
        return "%s;%s" % (self.normal.text(a[0]), self.quotient.text(a[1]))


_CLOSURE_BUDGET = 20000  # elements finite_closure enumerates before it gives up


def finite_closure(model: GroupModel, seeds) -> list:
    """The subgroup generated by the seeds, its elements in breadth-first
    order: a walk from the identity by right multiplication by each seed.
    In a finite group this reaches the whole subgroup, since each inverse is
    a positive power.  Raises ValueError once the walk passes
    _CLOSURE_BUDGET elements."""
    seeds = list(seeds)
    order = [model.identity()]
    seen = set(order)
    for a in order:
        for s in seeds:
            b = model.mul(a, s)
            if b not in seen:
                seen.add(b)
                order.append(b)
                if len(order) > _CLOSURE_BUDGET:
                    raise ValueError("closure exceeded budget %d"
                                     % _CLOSURE_BUDGET)
    return order


def hat_subgroup(model: Product, acting_words: Sequence[Word]) -> tuple[str, ...]:
    """Normal closure in H of { w(h) h^-1 : w acting word, h in H }, for a
    semidirect product `model` = H x| F whose normal part H is a finite table
    and in which F acts by `model.act`; by `finite_closure`, which raises
    ValueError past its budget."""
    table = model.normal
    seeds = {table.mul(model.act(w, h), table.inv(h))
             for w in acting_words for h in table.elements}
    conjugates = {table.mul(table.mul(g, x), table.inv(g))
                  for g in table.elements for x in seeds}
    return tuple(sorted(finite_closure(table, conjugates)))


# ---------------------------------------------------------------------------
# stock models

def q8() -> FiniteTable:
    """Quaternion group of order 8: the elements +-x^a y^b (a, b in {0, 1}),
    with y x = -x y and x^2 = y^2 = -1 central."""
    keys = [(s, a, b) for b in (0, 1) for a in (0, 1) for s in (1, -1)]

    def name(s, a, b):
        body = "x" * a + "y" * b or "1"
        return body if s > 0 else "-" + body

    def mul(p, q):
        # y^b1 x^a2 = (-1)^(b1 a2) x^a2 y^b1, then x^2 = y^2 = -1
        (s1, a1, b1), (s2, a2, b2) = p, q
        sign = s1 * s2 * (-1) ** (b1 * a2 + a1 * a2 + b1 * b2)
        return (sign, (a1 + a2) % 2, (b1 + b2) % 2)

    return FiniteTable(tuple(name(*k) for k in keys),
                       tuple(tuple(name(*mul(p, q)) for q in keys) for p in keys))


def automorphism_from_images(table: FiniteTable, gen_images: dict[str, str]) -> dict[str, str]:
    """Extend images of a generating set to an automorphism of the finite
    group, as a permutation of its element names.  The pairs (g, image of g)
    generate a subgroup of table x table, which is the graph of a
    homomorphism exactly when no element is the first coordinate of two of
    its pairs (Goursat); the map is read off that graph."""
    graph = finite_closure(Product(table, table), gen_images.items())
    out = {g: h for g, h in graph}
    if len(out) != len(table.elements):
        raise ValueError("images do not generate the group")
    if len(out) != len(graph):
        raise ValueError("generator images do not define a homomorphism")
    if len(set(out.values())) != len(out):
        raise ValueError("generator images do not define a bijection")
    return out


def z2z6_model() -> Product:
    """Z^2 semidirect Z/6, k in Z/6 acting on vectors by M^k, where
    M = [[0, 1], [-1, 1]], of order 6, sends (x, y) to (y, y - x)."""

    def act(k, v):
        x, y = v
        for _ in range(k % 6):
            x, y = y, y - x
        return (x, y)
    return Product(FreeAbelian(2), CyclicZ(6), act)


def q8_semidirect_f2() -> Product:
    """Q8 semidirect the free group on a, b; a and b act by the automorphisms
    x -> y, y -> xy and x -> yx, y -> x respectively."""
    t = q8()
    yx = t.mul("y", "x")
    act_a = automorphism_from_images(t, {"x": "y", "y": "xy"})
    act_b = automorphism_from_images(t, {"x": yx, "y": "x"})
    return Product(t, FreeGroup(),
                   partial(act_on_finite, {Gen("a"): act_a, Gen("b"): act_b}))


TARGETS = ("z2-z6", "q8-f2", "braid:N", "braid:N-x-z")


def target(spec: str) -> GroupModel:
    """The stock model that `spec`, one of TARGETS with N a strand count,
    names (braid:3-x-z is B_3 x Z); ValueError if it names none."""
    if spec in ("z2-z6", "q8-f2"):
        return z2z6_model() if spec == "z2-z6" else q8_semidirect_f2()
    if not spec.startswith("braid:"):
        raise ValueError("unknown target %r; known: %s" % (spec, ", ".join(TARGETS)))
    try:
        braids = GarsideBraidGroup(int(spec[len("braid:"):].removesuffix("-x-z")))
    except ValueError:
        raise ValueError("target %r needs a strand count N >= 2" % spec) from None
    return Product(braids, CyclicZ(0)) if spec.endswith("-x-z") else braids
