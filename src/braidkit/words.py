"""Free-group words over indexed generator symbols.

Words are stored run-length encoded: a sequence of (symbol, exponent) runs
with nonzero exponents and no two consecutive runs sharing a symbol.  One
run-level kernel keeps every word freely reduced: `reduce_runs` merges runs
and `invert_runs` inverts them.  They, `substitute_runs` and
`cyclic_reduce_runs` take letters of any hashable type, so interned int
letters and subgroup labels share them.  A relation row is sparse,
{column: exponent sum} over a generator basis (`relation_rows`);
`exponent_vector` is the dense view of one.  An action on a free group is a
dict of generator images, applied by `substitute`.

Generators are interned, one `Gen` per (name, indices), so generator
equality is identity and dict and set lookups hash an address.  The pool
holds every generator ever built for the life of the process.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from functools import total_ordering
from typing import Iterable, Iterator, Sequence


_GENS: dict[tuple, Gen] = {}


@total_ordering
class Gen:
    """A generator symbol: a name plus an optional tuple of integer indices.

    Generators are interned: ``Gen(name, indices)`` returns the one instance
    for that pair, from a module-level pool that never shrinks.  Equality is
    identity and the hash is object's, both in C, so dicts and sets keyed by
    generators never hash a tuple.  Order is that of ``(name, indices)``;
    like a frozen dataclass, a Gen is immutable, and pickling or copying it
    gives back the same instance.
    """

    __slots__ = ("name", "indices")

    def __new__(cls, name: str, indices: tuple[int, ...] = ()) -> Gen:
        key = (name, indices)
        g = _GENS.get(key)
        if g is None:
            g = object.__new__(cls)
            object.__setattr__(g, "name", name)
            object.__setattr__(g, "indices", indices)
            g = _GENS.setdefault(key, g)   # another thread may have won
        return g

    def __setattr__(self, attr, value):
        raise FrozenInstanceError("cannot assign to field %r" % attr)

    def __delattr__(self, attr):
        raise FrozenInstanceError("cannot delete field %r" % attr)

    def __reduce__(self):
        return Gen, (self.name, self.indices)

    def __lt__(self, other):
        if other.__class__ is not Gen:
            return NotImplemented
        return (self.name, self.indices) < (other.name, other.indices)

    def __repr__(self) -> str:
        return "Gen(name=%r, indices=%r)" % (self.name, self.indices)

    def __str__(self) -> str:
        if self.indices:
            return "%s[%s]" % (self.name, ",".join(str(i) for i in self.indices))
        return self.name


def reduce_runs(runs: Iterable[tuple]) -> tuple:
    """Free reduction of runs over any letter type: zero exponents drop out
    and adjacent runs of one letter merge, vanishing when they cancel."""
    out: list[tuple] = []
    for g, e in runs:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return tuple(out)


def invert_runs(runs: Sequence[tuple]) -> tuple:
    """The inverse of freely reduced runs over any letter type."""
    return runs and tuple((g, -e) for g, e in reversed(runs))


@dataclass(frozen=True)
class Word:
    """A freely reduced word, as a tuple of (generator, nonzero exponent) runs."""

    runs: tuple[tuple[Gen, int], ...] = ()

    def __post_init__(self):
        for g, e in self.runs:
            if e == 0:
                raise ValueError("zero exponent in word run for %s" % g)
        for (g1, _), (g2, _) in zip(self.runs, self.runs[1:]):
            if g1 == g2:
                raise ValueError("adjacent runs share generator %s" % g1)

    def __len__(self) -> int:
        # letter length, not run count
        return sum(abs(e) for _, e in self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __str__(self) -> str:
        return word_to_text(self)

    def letters(self) -> Iterator[tuple[Gen, int]]:
        """Yield single letters (gen, ±1) left to right."""
        for g, e in self.runs:
            s = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield g, s

    def generators(self) -> set[Gen]:
        return {g for g, _ in self.runs}


IDENTITY = Word()


def letter(g: Gen, exp: int = 1) -> Word:
    if exp == 0:
        return IDENTITY
    return Word(((g, exp),))


def free_reduce(runs: Iterable[tuple[Gen, int]]) -> Word:
    return Word(reduce_runs(runs))


def multiply(*ws: Word) -> Word:
    runs: list[tuple[Gen, int]] = []
    for w in ws:
        runs.extend(w.runs)
    return free_reduce(runs)


def invert(w: Word) -> Word:
    return Word(invert_runs(w.runs))


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(invert(w), -k)
    return multiply(*([w] * k))


def conjugate(w: Word, by: Word) -> Word:
    """by * w * by^-1"""
    return multiply(by, w, invert(by))


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a b a^-1 b^-1"""
    return multiply(a, b, invert(a), invert(b))


def cyclic_reduce_runs(runs: Sequence[tuple]) -> tuple:
    """Cyclic reduction of freely reduced runs over any letter type: end
    letters cancel in pairs, and what is left of the longer end run stays
    on its side."""
    i, j = 0, len(runs) - 1
    while i < j and runs[i][0] == runs[j][0]:
        (g, a), (_, b) = runs[i], runs[j]
        if (a > 0) == (b > 0):
            break
        if a + b:
            mid = tuple(runs[i + 1:j])
            return ((g, a + b),) + mid if abs(a) > abs(b) else mid + ((g, a + b),)
        i, j = i + 1, j - 1
    return tuple(runs[i:j + 1])


def cyclic_reduce(w: Word) -> Word:
    """Strip matching first/last letters until the word is cyclically reduced."""
    return Word(cyclic_reduce_runs(w.runs))


def exponent_sum(w: Word, g: Gen) -> int:
    return sum(e for h, e in w.runs if h == g)


def relation_rows(ws: Iterable[Word], gens: Sequence[Gen]) -> list[dict[int, int]]:
    """Sparse exponent-sum rows {column: nonzero sum} of the words over one
    generator basis (the relation rows of a presentation), indexing the
    basis once."""
    idx = {g: i for i, g in enumerate(gens)}
    rows = []
    for w in ws:
        row: dict[int, int] = {}
        for g, e in w.runs:
            i = idx.get(g)
            if i is None:
                raise ValueError("word uses generator %s outside the given basis" % g)
            row[i] = row.get(i, 0) + e
        rows.append({i: e for i, e in row.items() if e})
    return rows


def exponent_vector(w: Word, gens: Sequence[Gen]) -> tuple[int, ...]:
    """The dense view of one word's relation row."""
    row = relation_rows((w,), gens)[0]
    return tuple(row.get(i, 0) for i in range(len(gens)))


def substitute_runs(runs: Iterable[tuple], images: dict) -> tuple:
    """Freely reduced runs with each letter g that has images[g] (runs)
    replaced by it, in one pass; letters may be of any hashable type."""
    def pieces():
        for g, e in runs:
            img = images.get(g)
            if img is None:
                yield g, e
            else:
                yield from (img if e > 0 else invert_runs(img)) * abs(e)
    return reduce_runs(pieces())


def substitute(w: Word, images: dict[Gen, Word]) -> Word:
    """Replace each generator that has an image by that word.  A generator
    without one stays as it is, so callers that need every generator mapped
    check that first."""
    return Word(substitute_runs(w.runs, {g: images[g].runs for g, _ in w.runs
                                         if g in images}))


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\[(?P<idx>-?\d+(?:\s*,\s*-?\d+)*)\])?"
    r"(?:\^(?P<exp>-?\d+))?|(?P<bad>\S))"
)


def parse_runs(text: str) -> list[tuple[Gen, int]]:
    """The (generator, exponent) runs of a word in the `parse_word` syntax,
    one per token, before free reduction."""
    if text.strip() in ("", "1"):
        return []
    runs: list[tuple[Gen, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or not m.group(0).strip():
            break
        if m.group("bad"):
            raise ValueError("unexpected character %r at position %d" % (m.group("bad"), m.start("bad")))
        idx = m.group("idx")
        gen = Gen(m.group("name"), tuple(int(p) for p in idx.split(",")) if idx else ())
        exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if exp == 0:
            raise ValueError("zero exponent for %s at position %d" % (gen, m.start("name")))
        runs.append((gen, exp))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError("trailing garbage in word: %r" % text[pos:])
    return runs


def parse_word(text: str) -> Word:
    """Parse the ``s[1]^2 s[2] s[1]^-3`` word syntax.  ``1`` is the identity."""
    return free_reduce(parse_runs(text))


def parse_gen(text: str) -> Gen:
    """Parse one token that is a generator to the power 1, such as ``s[1]``."""
    runs = parse_runs(text)
    if len(runs) != 1 or runs[0][1] != 1:
        raise ValueError("%r is not a single generator" % text)
    return runs[0][0]


def word_to_text(w: Word) -> str:
    if not w.runs:
        return "1"
    parts = []
    for g, e in w.runs:
        parts.append(str(g) if e == 1 else "%s^%d" % (g, e))
    return " ".join(parts)
