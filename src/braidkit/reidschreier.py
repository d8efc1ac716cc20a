"""Reidemeister-Schreier presentations of weight-map kernels.

Given a finite presentation and a weight homomorphism onto Z/m (or Z), the
kernel is presented on the Schreier generators t^c x t^-(c+omega(x)) over
the transversal {t^c} of a designated weight-1 generator t (Magnus, Karrass
and Solitar, "Combinatorial Group Theory", section 2.3).  One rewrite walks a
word through the integer cosets c and emits a Schreier generator for each
letter.  Modulo m > 0 it brings c back into [0, m) after each letter and
emits w = t^m for each wrap; for Z (m = 0) it never wraps.  The finite and
the Z case differ only in how they name the generator of x at coset c
(x[..., c], or c in the family of x) and in what they return: a finite
presentation, or an indexed one with one generator family per ambient
generator.  A deliberately limited Tietze eliminator removes
duplicate-generator relators only.

On a finite presentation the eliminator follows the occurrence-indexed
design of Havas, Kenne, Richardson and Robertson, "A Tietze transformation
program" (1984).  Generators are interned as small ints in (name, indices)
order, so that integer letter tuples sort like canonical_relator's keys;
each relator carries its canonical key, computed once per rewrite; and an
index from each generator to the relators holding it means an elimination
rewrites and re-keys only those relators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .presentations import IndexedPresentation, Presentation, shift_families
from .words import (Gen, Word, cyclic_reduce, free_reduce, letter,
                    power, substitute)


@dataclass(frozen=True)
class RsOutput:
    """Subgroup presentation plus the ambient meaning of its generators."""

    presentation: Union[Presentation, IndexedPresentation]
    dictionary: dict
    transversal: tuple

    def expand(self, w: Word) -> Word:
        """Rewrite a subgroup word as an ambient word via the dictionary.
        Raises ValueError for a generator the dictionary has no entry for."""
        for g, _ in w.runs:
            if g not in self.dictionary:
                raise ValueError("no dictionary entry for generator %s" % g)
        return substitute(w, self.dictionary)


def _check_weights(p: Presentation, weights: Optional[dict], t: Gen,
                   modulus: int) -> dict:
    if weights is None:
        weights = {g: 1 for g in p.generators}
    missing = [g for g in p.generators if g not in weights]
    if missing:
        raise ValueError("no weight for generator %s" % missing[0])
    if t not in p.generators:
        raise ValueError("transversal %s is not a generator of %s" % (t, p.name))
    if weights[t] != 1:
        raise ValueError("transversal generator %s must have weight 1" % t)
    if modulus:
        if math.gcd(modulus, *[weights[g] for g in p.generators]) != 1:
            raise ValueError("weights are not surjective mod %d" % modulus)
    for r in p.relators:
        total = sum(weights[g] * e for g, e in r.runs)
        if (total % modulus if modulus else total) != 0:
            raise ValueError("relator %s has nonzero weight %d" % (r, total))
    return weights


def _schreier_word(t: Gen, x: Gen, coset: int, omega: int) -> Word:
    """The ambient word t^coset x t^-(coset+omega) of a Schreier generator."""
    return free_reduce([(t, coset), (x, 1), (t, -(coset + omega))])


def _rewrite(word: Word, start: int, t: Gen, weights: dict, modulus: int,
             name: Callable[[Gen, int], Gen], w_gen: Optional[Gen]) -> Word:
    """Rewrite an ambient word, read from coset `start`, in the Schreier
    generators name(x, c) = t^c x t^-(c+omega(x)); t itself emits none.  A
    positive letter emits before the coset moves, a negative one after it
    moves back.  Modulus 0 is Z; modulo m > 0, divmod brings the coset back
    into [0, m) after each letter and its q wraps emit w_gen^q, w_gen = t^m."""
    runs = []
    c = start
    for x, sign in word.letters():
        if sign > 0:
            if x != t:
                runs.append((name(x, c), 1))
            c += weights[x]
        else:
            c -= weights[x]
        if modulus:
            q, c = divmod(c, modulus)
            if q:
                runs.append((w_gen, q))
        if sign < 0 and x != t:
            runs.append((name(x, c), -1))
    return free_reduce(runs)


def rs_finite_cyclic(p: Presentation, modulus: int, t: Gen,
                     weights: Optional[dict] = None) -> RsOutput:
    """Present the kernel of the weight map onto Z/modulus.

    Schreier generators over the transversal {t^j, 0 <= j < modulus}: the
    generator t contributes the single generator w = t^modulus; every other
    generator x of weight omega contributes one generator x[..., c] per
    coset c, with ambient word t^c x t^-(c+omega).  Relators are the modulus
    rewrites of each ambient relator (freely trivial ones dropped).
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    weights = _check_weights(p, weights, t, modulus)

    def name(x: Gen, c: int) -> Gen:
        return Gen(x.name, x.indices + (c,))

    w_gen = Gen("w")
    dictionary = {w_gen: power(letter(t), modulus)}
    gens = [w_gen]
    for x in p.generators:
        if x == t:
            continue
        for c in range(modulus):
            g = name(x, c)
            gens.append(g)
            dictionary[g] = _schreier_word(t, x, c, weights[x])

    relators = []
    for r in p.relators:
        for k in range(modulus):
            rw = _rewrite(r, k, t, weights, modulus, name, w_gen)
            if rw:
                relators.append(rw)
    sub = Presentation("%s/ker%d" % (p.name, modulus), tuple(gens),
                       tuple(relators))
    transversal = tuple(power(letter(t), j) for j in range(modulus))
    return RsOutput(sub, dictionary, transversal)


# how far beyond the window the dictionary of rs_z_window spells out x@k
_DICTIONARY_MARGIN = 8


def rs_z_window(p: Presentation, t: Gen, weights: Optional[dict] = None,
                window: int = 2) -> RsOutput:
    """Present the kernel of the weight map onto Z, windowed.

    Generator families x@k = t^k x t^-(k+omega(x)); the relator family of
    each ambient relator r is its rewrite from coset 0, whose instance at k
    is the rewrite of r conjugated by t^k.  Family names encode
    the ambient generator (e.g. s[2] -> family "s2").  The dictionary
    covers the indices within _DICTIONARY_MARGIN of the window.
    """
    weights = _check_weights(p, weights, t, 0)
    fam_name = {}
    for x in p.generators:
        if x == t:
            continue
        fam_name[x] = x.name + "_".join(str(i) for i in x.indices)
    if len(set(fam_name.values())) != len(fam_name):
        raise ValueError("ambient generator names collide as family names")

    def name(x: Gen, c: int) -> Gen:
        return Gen(fam_name[x], (c,))

    families = tuple(fam_name[x] for x in p.generators if x != t)
    rel_fams = tuple(_rewrite(r, 0, t, weights, 0, name, None)
                     for r in p.relators)
    ip = IndexedPresentation("%s/kerZ" % p.name, (), families, (), rel_fams,
                             window)
    dictionary = {}
    for x in p.generators:
        if x == t:
            continue
        for k in range(-window - _DICTIONARY_MARGIN, window + _DICTIONARY_MARGIN + 1):
            dictionary[name(x, k)] = _schreier_word(t, x, k, weights[x])
    transversal = (letter(t),)
    return RsOutput(ip, dictionary, transversal)


# ---------------------------------------------------------------------------
# relator canonicalization and the limited Tietze eliminator

def canonical_relator(w: Word) -> tuple:
    """Least representative among cyclic rotations of w and of its inverse."""
    w = cyclic_reduce(w)
    seq = [(g.name, g.indices, s) for g, s in w.letters()]
    if not seq:
        return ()
    best = None
    for cand_seq in (seq, [(n, i, -s) for n, i, s in reversed(seq)]):
        for r in range(len(cand_seq)):
            rot = tuple(cand_seq[r:] + cand_seq[:r])
            if best is None or rot < best:
                best = rot
    return best


# The finite eliminator works on interned runs: generator i of the sorted
# generator list is the int i, and letter i^s is the int 2i + (s > 0), so
# that tuples of letters compare like canonical_relator's
# (name, indices, sign) tuples.

def _cyclic_key(runs: tuple) -> tuple:
    """canonical_relator of an interned word: the least rotation of its
    cyclic reduction or of that reduction's inverse, as letter ints."""
    runs = list(runs)
    while len(runs) > 1 and runs[0][0] == runs[-1][0]:
        g, e = runs.pop()
        e += runs[0][1]
        if e:
            runs[0] = (g, e)
            break
        del runs[0]
    seq = []
    for g, e in runs:
        seq += [2 * g + 1] * e if e > 0 else [2 * g] * -e
    if not seq:
        return ()
    n = len(seq)
    inv = [c ^ 1 for c in reversed(seq)]
    first = min(seq + inv)
    best = None
    for s in (seq, inv):
        s2 = s + s
        for i in range(n):
            if s[i] == first:
                rot = tuple(s2[i:i + n])
                if best is None or rot < best:
                    best = rot
    return best


def _substitute(runs: tuple, g: int, image: tuple) -> tuple:
    """Freely reduced interned runs with g replaced by the image runs."""
    out = []
    for h, e in runs:
        if h != g:
            parts = ((h, e),)
        elif e > 0:
            parts = image * e
        else:
            parts = tuple((x, -k) for x, k in reversed(image)) * -e
        for x, k in parts:
            if out and out[-1][0] == x:
                k += out.pop()[1]
                if not k:
                    continue
            out.append((x, k))
    return tuple(out)


def _find_elimination(runs: tuple):
    """If the relator says one generator equals a word in another (at most
    two runs, one with a +-1 exponent), return (gen, image runs)."""
    if len(runs) == 1:
        (g, e), = runs
        return (g, ()) if abs(e) == 1 else None
    if len(runs) != 2:
        return None
    (g1, e1), (g2, e2) = runs
    if abs(e1) == 1:
        # g1^e1 g2^e2 = 1
        return g1, ((g2, -e2 * e1),)
    if abs(e2) == 1:
        return g2, ((g1, -e1 * e2),)
    return None


class _Relator:
    """An interned relator with its sort key (letter length, canonical key),
    computed once per rewrite."""

    __slots__ = ("runs", "key", "sort_key")

    def __init__(self, runs: tuple):
        self.rewrite(runs)

    def rewrite(self, runs: tuple) -> None:
        self.runs = runs
        self.key = _cyclic_key(runs)
        self.sort_key = (sum(abs(e) for _, e in runs), self.key)


def _tietze_presentation(p: Presentation) -> Presentation:
    """Each round sorts the relators stably by (length, canonical key),
    drops trivial ones and all but the first of each key, and eliminates
    the generator of the first relator _find_elimination accepts.  Kept
    relators have distinct keys, so the live set is a dict by key, the
    sorted order is the order of sort keys, and a round only re-keys the
    relators holding the eliminated generator (found by an occurrence
    index).  Of the relators a round leaves with one key, the sort keeps
    the one least in (new length, sort key before the round)."""
    interned = sorted(p.generators)
    code = {g: i for i, g in enumerate(interned)}
    live = {}
    for r in sorted((_Relator(tuple((code[g], e) for g, e in w.runs))
                     for w in p.relators), key=lambda r: r.sort_key):
        live.setdefault(r.key, r)
    index = {i: set() for i in range(len(interned))}
    for r in live.values():
        for g, _ in r.runs:
            index[g].add(r)
    candidates = {r for r in live.values() if _find_elimination(r.runs)}

    def forget(r: _Relator) -> None:
        candidates.discard(r)
        for h, _ in r.runs:
            index[h].discard(r)

    gens = list(p.generators)
    while candidates:
        g, image = _find_elimination(
            min(candidates, key=lambda r: r.sort_key).runs)
        gens.remove(interned[g])
        touched = list(index[g])
        for r in touched:
            del live[r.key]
            forget(r)
        rank = {}
        for r in touched:
            before = r.sort_key
            r.rewrite(_substitute(r.runs, g, image))
            if not r.key:
                continue
            mine = (r.sort_key[0], before)
            other = live.get(r.key)
            if other is not None:
                if rank.get(r.key, (other.sort_key[0], other.sort_key)) <= mine:
                    continue
                forget(other)
            live[r.key] = r
            rank[r.key] = mine
            for h, _ in r.runs:
                index[h].add(r)
            if _find_elimination(r.runs):
                candidates.add(r)
    relators = tuple(Word(tuple((interned[g], e) for g, e in r.runs))
                     for r in sorted(live.values(), key=lambda r: r.sort_key))
    return Presentation(p.name, tuple(gens), relators)


def _family_link(w: Word, live: list) -> Optional[tuple]:
    """(f, a, g, b) when w is f@a^e g@b^-e with e = +-1 and f, g live
    families, so that f@(k+a) = g@(k+b) for every k."""
    if len(w.runs) != 2:
        return None
    (g1, e1), (g2, e2) = w.runs
    if abs(e1) != 1 or e1 != -e2 or g1.name not in live or g2.name not in live:
        return None
    a, b = g1.indices[0], g2.indices[0]
    if g1.name == g2.name and abs(a - b) > 1:
        return None  # f@(k+a) = f@(k+b) makes f periodic, not constant
    return g1.name, a, g2.name, b


def _rename(w: Word, family: str, image: Callable[[int], Gen]) -> Word:
    return free_reduce((image(g.indices[0]), e) if g.name == family else (g, e)
                       for g, e in w.runs)


def _distinct(words: list, key: Callable[[Word], tuple]) -> tuple:
    """The words in order, without freely trivial ones and those whose key
    an earlier word has."""
    kept, seen = [], set()
    for w in words:
        k = key(w)
        if k and k not in seen:
            seen.add(k)
            kept.append(w)
    return tuple(kept)


def _tietze_indexed(ip: IndexedPresentation) -> IndexedPresentation:
    live = list(ip.families)
    fixed_gens = list(ip.fixed_generators)
    fixed_rels = list(ip.fixed_relators)
    rel_fams = list(ip.relator_families)
    while True:
        found = None
        for idx, w in enumerate(rel_fams):
            found = _family_link(w, live)
            if found:
                break
        if not found:
            break
        del rel_fams[idx]
        f, a, g, b = found
        if f == g:
            # f@(k+a) = f@(k+b) with |a - b| = 1 for all k: one generator in
            # the whole family
            fixed_gens.append(Gen(f, ()))
            gone, image = f, lambda i: Gen(f, ())
        elif live.index(g) > live.index(f):
            # f@(k+a) = g@(k+b) for all k; eliminate the later family
            gone, image = g, lambda i: Gen(f, (i + a - b,))
        else:
            gone, image = f, lambda i: Gen(g, (i + b - a,))
        live.remove(gone)
        rel_fams = [_rename(w, gone, image) for w in rel_fams]
        fixed_rels = [_rename(w, gone, image) for w in fixed_rels]

    def up_to_shift(w: Word) -> tuple:
        offsets = [x.indices[0] for x in w.generators() if x.name in live]
        return canonical_relator(shift_families(w, live, -min(offsets))
                                 if offsets else w)

    return IndexedPresentation(ip.name, tuple(fixed_gens), tuple(live),
                               _distinct(fixed_rels, canonical_relator),
                               _distinct(rel_fams, up_to_shift), ip.window)


def tietze_eliminate(p):
    """Eliminate duplicate-generator relators (g = word in one other
    generator) until none remain.  Deliberately limited: no relator-driven
    rewriting beyond this rule, plus dropping freely trivial relators and
    duplicate relators up to inversion and cyclic rotation.

    A finite presentation comes back with its relators sorted by (length,
    canonical_relator), the first of each key kept, and each elimination
    taken from the first relator in that order that allows one.  The work
    is on interned letters with cached keys and a generator-to-relator
    occurrence index (Havas, Kenne, Richardson and Robertson, 1984), so an
    elimination costs only the relators holding the eliminated generator."""
    if isinstance(p, IndexedPresentation):
        return _tietze_indexed(p)
    if isinstance(p, RsOutput):
        inner = tietze_eliminate(p.presentation)
        dictionary = dict(p.dictionary)
        if isinstance(inner, IndexedPresentation):
            # a family f collapsed to one generator f, equal to every f@k
            for g in inner.fixed_generators:
                if g not in dictionary:
                    dictionary[g] = dictionary[Gen(g.name, (0,))]
        return RsOutput(inner, dictionary, p.transversal)
    return _tietze_presentation(p)
