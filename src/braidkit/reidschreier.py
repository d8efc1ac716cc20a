"""Reidemeister-Schreier presentations of weight-map kernels.

Given a finite presentation and a weight homomorphism onto Z/m (or Z), the
kernel is presented on Schreier generators over the transversal {t^j} of a
designated weight-1 generator t.  The Z case produces an indexed presentation
with one generator family per ambient generator.  A deliberately limited
Tietze eliminator removes duplicate-generator relators only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .presentations import IndexedPresentation, Presentation, RelatorFamily
from .words import (IDENTITY, Gen, Word, cyclic_reduce, free_reduce, letter,
                    power, substitute)


@dataclass(frozen=True)
class RsOutput:
    """Subgroup presentation plus the ambient meaning of its generators."""

    presentation: Union[Presentation, IndexedPresentation]
    dictionary: dict
    transversal: tuple
    # rewrites an ambient weight-0 word to a subgroup word, starting at a coset
    rewriter: Optional[Callable[[Word, int], Word]] = None

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


def _subgroup_gen(x: Gen, coset: int) -> Gen:
    return Gen(x.name, x.indices + (coset,))


def rs_finite_cyclic(p: Presentation, modulus: int, t: Gen,
                     weights: Optional[dict] = None) -> RsOutput:
    """Present the kernel of the weight map onto Z/modulus.

    Schreier generators over the transversal {t^j, 0 <= j < modulus}: the
    generator t contributes the single generator w = t^modulus; every other
    generator x of weight omega contributes one generator per coset c, with
    ambient word t^c x t^-(c+omega).  Relators are the modulus rewrites of
    each ambient relator (freely trivial ones dropped).
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    weights = _check_weights(p, weights, t, modulus)
    w_gen = Gen("w")
    dictionary = {w_gen: power(letter(t), modulus)}
    gens = [w_gen]
    for x in p.generators:
        if x == t:
            continue
        for c in range(modulus):
            g = _subgroup_gen(x, c)
            gens.append(g)
            dictionary[g] = free_reduce([(t, c), (x, 1), (t, -(c + weights[x]))])

    def rewrite(word: Word, start: int) -> Word:
        runs = []
        c = start
        for x, sign in word.letters():
            if x == t:
                if sign > 0:
                    if c == modulus - 1:
                        runs.append((w_gen, 1))
                    c = (c + 1) % modulus
                else:
                    if c == 0:
                        runs.append((w_gen, -1))
                    c = (c - 1) % modulus
                continue
            omega = weights[x]
            if sign > 0:
                q = (c + omega) // modulus
                runs.append((_subgroup_gen(x, c), 1))
                if q:
                    runs.append((w_gen, q))
                c = (c + omega) % modulus
            else:
                c2 = (c - omega) % modulus
                q = (c2 + omega - c) // modulus
                if q:
                    runs.append((w_gen, -q))
                runs.append((_subgroup_gen(x, c2), -1))
                c = c2
        return free_reduce(runs)

    relators = []
    for r in p.relators:
        for k in range(modulus):
            rw = rewrite(r, k)
            if rw:
                relators.append(rw)
    sub = Presentation("%s/ker%d" % (p.name, modulus), tuple(gens),
                       tuple(relators))
    transversal = tuple(power(letter(t), j) for j in range(modulus))
    return RsOutput(sub, dictionary, transversal, rewrite)


# how far beyond the window the dictionary of rs_z_window spells out x@k
_DICTIONARY_MARGIN = 8


def rs_z_window(p: Presentation, t: Gen, weights: Optional[dict] = None,
                window: int = 2) -> RsOutput:
    """Present the kernel of the weight map onto Z, windowed.

    Generator families x@k = t^k x t^-(k+omega(x)); relator families are the
    rewrites of each ambient relator conjugated by t^k.  Family names encode
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

    def rewrite(word: Word, start: int) -> Word:
        runs = []
        c = start
        for x, sign in word.letters():
            if x == t:
                c += sign
                continue
            if sign > 0:
                runs.append((Gen(fam_name[x], (c,)), 1))
                c += weights[x]
            else:
                c -= weights[x]
                runs.append((Gen(fam_name[x], (c,)), -1))
        return free_reduce(runs)

    def make_family(r: Word) -> RelatorFamily:
        return lambda k: rewrite(r, k)

    families = tuple(fam_name[x] for x in p.generators if x != t)
    rel_fams = tuple(make_family(r) for r in p.relators)
    ip = IndexedPresentation("%s/kerZ" % p.name, (), families, (), rel_fams,
                             window)
    dictionary = {}
    for x in p.generators:
        if x == t:
            continue
        for k in range(-window - _DICTIONARY_MARGIN, window + _DICTIONARY_MARGIN + 1):
            dictionary[Gen(fam_name[x], (k,))] = free_reduce(
                [(t, k), (x, 1), (t, -(k + weights[x]))])
    transversal = (letter(t),)
    return RsOutput(ip, dictionary, transversal, rewrite)


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


def _relator_sort_key(w: Word):
    return (len(w), canonical_relator(w))


def _find_elimination(r: Word):
    """If r says one generator equals a word in another (two-run relator with
    a +/-1 exponent), return (gen, replacement word)."""
    if len(r.runs) != 2:
        if len(r.runs) == 1 and abs(r.runs[0][1]) == 1:
            return r.runs[0][0], IDENTITY
        return None
    (g1, e1), (g2, e2) = r.runs
    if abs(e1) == 1:
        # g1^e1 g2^e2 = 1
        return g1, free_reduce([(g2, -e2 * e1)])
    if abs(e2) == 1:
        return g2, free_reduce([(g1, -e1 * e2)])
    return None


def _tietze_presentation(p: Presentation) -> Presentation:
    gens = list(p.generators)
    relators = list(p.relators)
    while True:
        # drop trivial, dedup by canonical form
        seen = set()
        cleaned = []
        for r in sorted(relators, key=_relator_sort_key):
            key = canonical_relator(r)
            if not key or key in seen:
                continue
            seen.add(key)
            cleaned.append(r)
        relators = cleaned
        found = None
        for r in relators:
            found = _find_elimination(r)
            if found:
                break
        if not found:
            break
        g, image = found
        images = {g: image}
        relators = [substitute(r, images) for r in relators]
        gens.remove(g)
    return Presentation(p.name, tuple(gens), tuple(relators))


def _tietze_indexed(ip: IndexedPresentation) -> IndexedPresentation:
    # mapping: family name -> ("fam", target name, offset) | ("fixed", Gen)
    fam_map: dict = {}

    def resolve(name: str, k: int):
        off = k
        while name in fam_map:
            entry = fam_map[name]
            if entry[0] == "fixed":
                return entry[1], None
            name = entry[1]
            off += entry[2]
        return name, off

    live_fams = set(ip.families)

    def rewrite(w: Optional[Word]) -> Word:
        if not w:
            return IDENTITY
        runs = []
        for g, e in w.runs:
            if g.name in ip.families:
                tgt, off = resolve(g.name, g.indices[0])
                if off is None:
                    runs.append((tgt, e))
                else:
                    runs.append((Gen(tgt, (off,)), e))
            else:
                runs.append((g, e))
        return free_reduce(runs)

    rel_fams = list(ip.relator_families)
    probes = (0, 1, -1, 2)
    while True:
        found = None
        for idx, rf in enumerate(rel_fams):
            inst = [rewrite(rf(k)) for k in probes]
            shapes = []
            for k, w in zip(probes, inst):
                if len(w.runs) != 2:
                    shapes = None
                    break
                (g1, e1), (g2, e2) = w.runs
                if (abs(e1) != 1 or abs(e2) != 1 or e1 != -e2
                        or g1.name not in live_fams or g2.name not in live_fams):
                    shapes = None
                    break
                a, b = g1.indices[0] - k, g2.indices[0] - k
                if g1.name == g2.name and abs(a - b) > 1:
                    # f@(k+a) = f@(k+b) makes f periodic, not constant
                    shapes = None
                    break
                shapes.append((g1.name, a, e1, g2.name, b, e2))
            if shapes and all(s == shapes[0] for s in shapes):
                found = (idx, shapes[0])
                break
        if not found:
            break
        idx, (n1, a, e1, n2, b, _e2) = found
        del rel_fams[idx]
        if n1 == n2:
            if a == b:
                continue  # trivial family, already dropped
            # f@(k+a) = f@(k+b) with |a - b| = 1 for all k: one generator in
            # the whole family
            fixed = Gen(n1, ())
            fam_map[n1] = ("fixed", fixed)
            live_fams.discard(n1)
        else:
            # relator f@(k+a)^e g@(k+b)^-e = 1; eliminate the later family
            if list(ip.families).index(n2) > list(ip.families).index(n1):
                fam_map[n2] = ("fam", n1, a - b)
                live_fams.discard(n2)
            else:
                fam_map[n1] = ("fam", n2, b - a)
                live_fams.discard(n1)

    def wrap(rf: RelatorFamily) -> RelatorFamily:
        return lambda k: rewrite(rf(k))

    wrapped = [wrap(rf) for rf in rel_fams]
    # drop relator families that are instance-equal to an earlier one
    kept: list[RelatorFamily] = []
    sigs = set()
    for rf in wrapped:
        sig = tuple(canonical_relator(rf(k)) for k in range(-3, 4))
        if sig in sigs or all(s == () for s in sig):
            continue
        sigs.add(sig)
        kept.append(rf)
    fixed_gens = list(ip.fixed_generators)
    for entry in fam_map.values():
        if entry[0] == "fixed":
            fixed_gens.append(entry[1])
    fixed_rels = []
    seen = set()
    for r in ip.fixed_relators:
        r2 = rewrite(r)
        key = canonical_relator(r2)
        if key and key not in seen:
            seen.add(key)
            fixed_rels.append(r2)
    families = tuple(f for f in ip.families if f in live_fams)
    return IndexedPresentation(ip.name, tuple(fixed_gens), families,
                               tuple(fixed_rels), tuple(kept), ip.window)


def tietze_eliminate(p):
    """Eliminate duplicate-generator relators (g = word in one other
    generator) until none remain.  Deliberately limited: no relator-driven
    rewriting beyond this rule, plus dropping freely trivial relators and
    duplicate relators up to inversion and cyclic rotation."""
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
        return RsOutput(inner, dictionary, p.transversal, p.rewriter)
    return _tietze_presentation(p)
