"""Reidemeister-Schreier presentations of subgroups of finite index and of
weight-map kernels (Magnus, Karrass and Solitar, "Combinatorial Group
Theory", section 2.3; Holt, Eick and O'Brien, "Handbook of Computational
Group Theory", section 2.5).

One rewrite loop serves every subgroup: it reads the move of each letter,
(next coset, emitted runs of Schreier generators), from a map keyed by
(coset, generator, +-1).  `rs_coset_table` builds the map of any action by
permutations of a finite set from its breadth-first coset table, with a
generator x[..., i] = rep(i) x rep(i x)^-1 on each non-tree edge.
`rs_finite_cyclic` reads the weight map onto Z/m over the transversal
{t^c}, with x[..., c] = t^c x t^-(c+omega(x)) and w = t^m emitted at each
wrap past m, and `rs_z_window` the weight map onto Z; both maps fill on
demand.  `rs_z_window` returns an indexed presentation, one generator
family per ambient generator, whose dictionary spells x@k for exactly the
indices |k| <= K of its window K.

A deliberately limited Tietze eliminator removes duplicate-generator
relators only.  On a finite presentation it follows the occurrence-indexed
design of Havas, Kenne, Richardson and Robertson, "A Tietze transformation
program" (1984).  Generators are interned as small ints in (name, indices)
order; eliminated ones are recorded by that int, and the kept generator
tuple is built once at the end.  Each relator carries its canonical key,
computed once per rewrite, and an index from each generator to the
relators holding it means an elimination rewrites and re-keys only those
relators.  Rewriting is the run-level `words.substitute_runs`, which
reduces through `words.reduce_runs`.  There is
one canonical key, `_cyclic_key` on interned runs (after
`words.cyclic_reduce_runs`); `canonical_relator` interns a word's
generators in sorted order, keys it and decodes the letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Hashable, Optional, Sequence, Union

from .presentations import IndexedPresentation, Presentation, shift_families
from .words import (IDENTITY, Gen, Word, cyclic_reduce_runs, free_reduce,
                    invert, letter, multiply, power, substitute_runs)


@dataclass(frozen=True)
class RsOutput:
    """Subgroup presentation plus the ambient meaning of its generators."""

    presentation: Union[Presentation, IndexedPresentation]
    dictionary: dict


def _rewrite(word: Word, start, moves) -> tuple[Word, Hashable]:
    """(rewrite, end coset) of an ambient word read from coset `start`: each
    letter x^sign looks up moves[coset, x, sign] = (next coset, runs) and
    emits the runs."""
    runs = []
    c = start
    for x, e in word.runs:
        sign = 1 if e > 0 else -1
        for _ in range(e * sign):
            c, emitted = moves[c, x, sign]
            runs += emitted
    return free_reduce(runs), c


def _rewrites(relators: Sequence[Word], cosets, moves) -> tuple:
    """The rewrites of each relator from each coset that are not trivial."""
    out = []
    for r in relators:
        for c in cosets:
            rw, end = _rewrite(r, c, moves)
            if end != c:  # the action is not one of the presented group
                raise ValueError("relator %s does not fix coset %r" % (r, c))
            if rw:
                out.append(rw)
    return tuple(out)


class _OnDemand(dict):
    """A move map that computes each move on its first lookup."""

    def __init__(self, move: Callable):
        self.move = move

    def __missing__(self, key):
        self[key] = value = self.move(*key)
        return value


def _weight_moves(t: Gen, weights: dict, modulus: int, name: Callable[[Gen, int], Gen]):
    """Move map of the weight map onto Z/modulus (Z for modulus 0), each move
    computed on its first use: x^+-1 emits name(x, c) = t^c x
    t^-(c+omega(x)), t none, and q wraps back into [0, m) emit w^q (modulo
    0 nothing wraps)."""
    def move(c: int, x: Gen, sign: int) -> tuple[int, tuple]:
        d = c + sign * weights[x]
        q, d = divmod(d, modulus) if modulus else (0, d)
        wraps = ((Gen("w"), q),) if q else ()
        if x == t:
            return d, wraps
        if sign > 0:
            return d, ((name(x, c), 1),) + wraps
        return d, wraps + ((name(x, d), -1),)

    return _OnDemand(move)


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
    if modulus and math.gcd(modulus, *[weights[g] for g in p.generators]) != 1:
        raise ValueError("weights are not surjective mod %d" % modulus)
    for r in p.relators:
        total = sum(weights[g] * e for g, e in r.runs)
        if (total % modulus if modulus else total) != 0:
            raise ValueError("relator %s has nonzero weight %d" % (r, total))
    return weights


def _schreier_word(t: Gen, x: Gen, coset: int, omega: int) -> Word:
    """The ambient word t^coset x t^-(coset+omega) of a Schreier generator."""
    return free_reduce([(t, coset), (x, 1), (t, -(coset + omega))])


def _finite_name(x: Gen, c: int) -> Gen:
    """x[..., c]: the generator of x at coset c of a finite index subgroup."""
    return Gen(x.name, x.indices + (c,))


def rs_finite_cyclic(p: Presentation, modulus: int, t: Gen,
                     weights: Optional[dict] = None) -> RsOutput:
    """Present the kernel of the weight map onto Z/modulus.

    Schreier generators over the transversal {t^j, 0 <= j < modulus}: the
    generator t contributes the single generator w = t^modulus; every other
    generator x of weight omega contributes one generator x[..., c] per
    coset c, with ambient word t^c x t^-(c+omega).  Relators are the modulus
    rewrites of each ambient relator (freely trivial ones dropped)."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    weights = _check_weights(p, weights, t, modulus)
    moves = _weight_moves(t, weights, modulus, _finite_name)
    dictionary = {Gen("w"): power(letter(t), modulus)}
    dictionary.update((_finite_name(x, c), _schreier_word(t, x, c, weights[x]))
                      for x in p.generators if x != t for c in range(modulus))
    relators = _rewrites(p.relators, range(modulus), moves)
    sub = Presentation("%s/ker%d" % (p.name, modulus), tuple(dictionary),
                       relators)
    return RsOutput(sub, dictionary)


_COSET_BUDGET = 20000  # cosets rs_coset_table enumerates before it gives up


def _coset_moves(gens: Sequence[Gen], start, act: Callable,
                 transversal: Optional[Sequence[Word]] = None):
    """(cosets, transversal, move map, dictionary) of a finite action: the
    cosets in breadth-first order from `start`, or in the order of a given
    Schreier transversal, and x[..., i] = rep(i) x rep(i x)^-1 on each edge
    (coset i, x) whose word is not freely trivial, that is, off the tree."""
    cosets, reps, forward = [start], {start: IDENTITY}, {}
    for c in cosets:
        for x in gens:
            d = forward[c, x] = act(c, x)
            if d not in reps:
                if len(cosets) == _COSET_BUDGET:
                    raise ValueError("the action has more than %d cosets"
                                     % _COSET_BUDGET)
                reps[d] = multiply(reps[c], letter(x))
                cosets.append(d)
    for x in gens:
        if len({forward[c, x] for c in cosets}) < len(cosets):
            raise ValueError("generator %s does not permute the cosets" % x)
    backward = {(d, x): c for (c, x), d in forward.items()}
    if transversal is not None:
        reps, known = {}, set(transversal)
        for w in transversal:
            c = start
            for x, sign in w.letters():
                c = forward[c, x] if sign > 0 else backward[c, x]
            if c in reps:
                raise ValueError("transversal word %s repeats coset %r" % (w, c))
            reps[c] = w
        if len(reps) != len(cosets):
            raise ValueError("transversal misses %d of the %d cosets"
                             % (len(cosets) - len(reps), len(cosets)))
        if next(iter(reps)) != start:
            raise ValueError("first transversal word %s must represent the "
                             "identity coset" % transversal[0])
        for w in transversal:
            prefix = free_reduce(list(w.letters())[:-1])
            if w and prefix not in known:
                raise ValueError("transversal is not prefix-closed: %s lacks "
                                 "its prefix %s" % (w, prefix))
        cosets = list(reps)
    number = {c: i for i, c in enumerate(cosets)}
    moves, dictionary = {}, {}
    for x in gens:
        for i, c in enumerate(cosets):
            d = forward[c, x]
            word = multiply(reps[c], letter(x), invert(reps[d]))
            if word:
                g = _finite_name(x, i)
                dictionary[g] = word
            moves[i, x, 1] = (number[d], ((g, 1),) if word else ())
            moves[number[d], x, -1] = (i, ((g, -1),) if word else ())
    return tuple(cosets), tuple(reps.values()), moves, dictionary


def rs_coset_table(p: Presentation, start, act: Callable,
                   transversal: Optional[Sequence[Word]] = None) -> RsOutput:
    """Present the stabilizer of `start` (the kernel, when a finite quotient
    acts on itself) under an action act(coset, gen) of the generators by
    permutations of a finite set, on the generators of _coset_moves with the
    nontrivial rewrites of each relator from each coset as relators."""
    cosets, _, moves, dictionary = _coset_moves(p.generators, start, act,
                                                transversal)
    relators = _rewrites(p.relators, range(len(cosets)), moves)
    sub = Presentation("%s/ker%d" % (p.name, len(cosets)), tuple(dictionary),
                       relators)
    return RsOutput(sub, dictionary)


def rs_z_window(p: Presentation, t: Gen, weights: Optional[dict] = None,
                window: int = 2) -> RsOutput:
    """Present the kernel of the weight map onto Z, windowed.

    Generator families x@k = t^k x t^-(k+omega(x)); the relator family of
    each ambient relator r is its rewrite from coset 0, whose instance at k
    is the rewrite of r conjugated by t^k.  Family names encode
    the ambient generator (e.g. s[2] -> family "s2").  The dictionary
    spells x@k for exactly |k| <= window, the generators of the
    presentation instantiated at that window, and has no entry past it.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    weights = _check_weights(p, weights, t, 0)
    fam_name = {x: x.name + "_".join(str(i) for i in x.indices)
                for x in p.generators if x != t}
    if len(set(fam_name.values())) != len(fam_name):
        raise ValueError("ambient generator names collide as family names")

    def name(x: Gen, c: int) -> Gen:
        return Gen(fam_name[x], (c,))

    moves = _weight_moves(t, weights, 0, name)
    rel_fams = tuple(_rewrite(r, 0, moves)[0] for r in p.relators)
    ip = IndexedPresentation("%s/kerZ" % p.name, (), tuple(fam_name.values()),
                             (), rel_fams)
    dictionary = {name(x, k): _schreier_word(t, x, k, weights[x])
                  for x in fam_name for k in range(-window, window + 1)}
    return RsOutput(ip, dictionary)


# ---------------------------------------------------------------------------
# relator canonicalization and the limited Tietze eliminator

# Relator keys and the finite eliminator work on interned runs: generator i
# of a sorted generator list is the int i, and letter i^s is the int
# 2i + (s > 0), so that tuples of letters compare like (name, indices, sign)
# tuples.

def _cyclic_key(runs: tuple) -> tuple:
    """The least rotation, as letter ints, of the cyclic reduction of an
    interned word or of that reduction's inverse."""
    seq = []
    for g, e in cyclic_reduce_runs(runs):
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


def canonical_relator(w: Word) -> tuple:
    """Least representative among cyclic rotations of w and of its inverse,
    as (name, indices, sign) letters."""
    gens = sorted(w.generators())
    code = {g: i for i, g in enumerate(gens)}
    return tuple((gens[c >> 1].name, gens[c >> 1].indices, 1 if c & 1 else -1)
                 for c in _cyclic_key(tuple((code[g], e) for g, e in w.runs)))


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
    the one least in (new length, sort key before the round).  The first
    relator that allows an elimination comes off a lazy heap by sort key:
    a relator is pushed when it enters the live set allowing one, and an
    entry whose relator has since been dropped or rewritten is skipped."""
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
    # (sort key, tie-break, relator) for each relator that allows an
    # elimination; an entry is stale once its relator has left the live set
    # or been rewritten to a new sort key
    heap = [(r.sort_key, id(r), r) for r in live.values()
            if _find_elimination(r.runs)]
    heapify(heap)

    def forget(r: _Relator) -> None:
        for h, _ in r.runs:
            index[h].discard(r)

    eliminated = set()
    while heap:
        sort_key, _, first = heappop(heap)
        if live.get(first.key) is not first or first.sort_key is not sort_key:
            continue
        g, image = _find_elimination(first.runs)
        images = {g: image}
        eliminated.add(g)
        touched = list(index[g])
        for r in touched:
            del live[r.key]
            forget(r)
        rank = {}
        for r in touched:
            before = r.sort_key
            r.rewrite(substitute_runs(r.runs, images))
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
                heappush(heap, (r.sort_key, id(r), r))
    relators = tuple(Word(tuple((interned[g], e) for g, e in r.runs))
                     for r in sorted(live.values(), key=lambda r: r.sort_key))
    return Presentation(p.name, tuple(x for x in p.generators
                                      if code[x] not in eliminated), relators)


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
                               _distinct(rel_fams, up_to_shift))


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
    elimination costs only the relators holding the eliminated generator,
    and a lazy heap by sort key gives the next relator that allows one."""
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
        return RsOutput(inner, dictionary)
    return _tietze_presentation(p)
