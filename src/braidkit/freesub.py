"""Finitely generated subgroups of free groups.

Subgroups are represented by their folded core graph, built by the worklist
folding of Touikan, "A fast algorithm for Stallings' folding process" (IJAC
2006).  The graph is the one two-way map vertex -> {(gen, +-1): neighbour}
that folding builds; a walk over it decides membership, its sorted positive
edges are derived from it on demand, and the rank is E - V + 1.  The same
fold, run with labels, marks each edge with a word in z[1], z[2], ..., one
z per generating word, so that the labels along a closed path at the
basepoint spell that path in those words (Kapovich-Myasnikov, J. Algebra
2002); `express` is one walk that reads them off.  Schreier generators of
finite-index subgroups come from `reidschreier.rs_coset_table`.

Cost model.  Words are read by runs, and a fold pays per letter only where
the graph changes.  A letter that opens a fresh edge to a fresh vertex from
an unmerged vertex costs two dict writes: no clash test and no label, since
such an edge is labelled 1.  Label products happen only across merges (and
where a word resumes from a merged vertex), and the plain fold that `fold`
runs never builds a label.  `express` folds, ranks and checks a basis once
per graph; later calls with that basis are one walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .words import Gen, Word, invert_runs, reduce_runs


def _walk(links: dict, v, w: Word):
    """The end of w read from v in a two-way map, None if w leaves it."""
    for g, e in w.runs:
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            v = links[v].get((g, sign))
            if v is None:
                return None
    return v


@dataclass
class SubgroupGraph:
    """Folded core graph of the subgroup generated by `words`, as the
    two-way map vertex -> {(gen, +-1): neighbour} that `fold` builds; every
    vertex has an entry, and vertex 0 is the basepoint."""

    words: tuple[Word, ...]
    links: dict[int, dict[tuple[Gen, int], int]]
    # basis -> (links, labels) of its labelled fold, filled by `express`
    _labelled: dict = field(default_factory=dict, compare=False, repr=False)
    basepoint = 0   # fold starts and ends every bouquet word here

    @property
    def edges(self) -> dict[tuple[int, Gen], int]:
        """(vertex, gen) -> vertex for each positive edge, in sorted order."""
        return dict(sorted(((u, g), v) for u, out in self.links.items()
                           for (g, sign), v in out.items() if sign > 0))


def _mul(*labels: tuple) -> tuple:
    """The freely reduced product of labels, runs over the index i of z[i]."""
    return reduce_runs([r for label in labels for r in label])


def _fold(words: Sequence[Word], labelled: bool) -> tuple[dict, dict]:
    """(links, labels) of the folded bouquet of the words.

    Each vertex v stands for a path word P(v), with P(0) = 1, and an entry
    u -key-> v of `links` has a label l, runs over i for z[i], such that
    l(words) = P(u) key P(v)^-1.  `labels` keeps those other than 1.  The
    closing edge of word i is seeded with z[i].  A clash shows P(b) =
    f P(a) for the vertices it joins, and merging gone into keep, with
    P(gone) = g P(keep), relabels gone's edges l -> g^-1 l (loops g^-1 l g).
    Unlabelled, no label is seeded and the label arithmetic is skipped.  A
    letter read from an unmerged vertex that has no edge under its key
    links a fresh vertex at once: P(u) key P(fresh)^-1 = 1."""
    links: dict[int, dict[tuple[Gen, int], int]] = {0: {}}
    labels: dict = {}               # (u, key) -> label
    merged: dict[int, tuple] = {}   # gone -> (keep, g)
    clashes: list[tuple] = []       # (a, b, f) still to merge

    def live(v: int):
        """(root, h) with P(v) = h P(root); compresses v's path to it."""
        if v not in merged:
            return v, ()
        path = []
        while v in merged:
            path.append(v)
            v = merged[v][0]
        h = ()
        for u in reversed(path):
            h = _mul(merged[u][1], h) if labelled else ()
            merged[u] = (v, h)
        return v, h

    def attach(u: int, key: tuple[Gen, int], v: int, label: tuple):
        there, back_key = links[u].get(key), (key[0], -key[1])
        back = links[v].get(back_key) if there is None else None
        if there is None and back is None:
            links[u][key], links[v][back_key] = v, u
            if label:
                labels[u, key], labels[v, back_key] = label, invert_runs(label)
        elif there is None:   # P(u) = label beta P(back), beta on v's edge
            clashes.append((back, u, _mul(label, labels.get((v, back_key), ()))
                            if labelled else ()))
        elif there != v:   # P(v) = label^-1 lambda' P(there), lambda' on u's edge
            clashes.append((there, v, _mul(invert_runs(label), labels.get((u, key), ()))
                            if labelled else ()))

    next_vertex = 1
    for i, w in enumerate(words, 1):
        letters: list[tuple[Gen, int]] = []
        for gen, e in w.runs:
            letters += [(gen, 1)] * e if e > 0 else [(gen, -1)] * -e
        prev, last = 0, len(letters) - 1
        for idx, key in enumerate(letters):
            if idx < last:
                tgt = next_vertex
                next_vertex += 1
                if prev not in merged and key not in links[prev]:
                    # a fresh edge to a fresh vertex: label 1, no clash
                    links[prev][key], links[tgt] = tgt, {(key[0], -key[1]): prev}
                    prev = tgt
                    continue
                links[tgt] = {}
            else:
                tgt = 0
            u, h = live(prev)   # the closing edge of word i is z[i]
            label = ((i, 1),) if labelled and not tgt else ()
            attach(u, key, tgt, _mul(invert_runs(h), label) if h else label)
            while clashes:
                a, b, f = clashes.pop()
                (ra, ha), (rb, hb) = live(a), live(b)
                if ra == rb:
                    continue
                if labelled:
                    f = _mul(invert_runs(hb), f, ha)   # now P(rb) = f P(ra)
                keep, gone, g = (ra, rb, f) if ra < rb else (rb, ra, invert_runs(f))
                merged[gone] = (keep, g)
                for step, v in links.pop(gone).items():
                    label = labels.pop((gone, step), ())
                    if v == gone:
                        v, label = keep, _mul(invert_runs(g), label, g) if g else label
                    else:
                        back_key = (step[0], -step[1])
                        del links[v][back_key]
                        labels.pop((v, back_key), None)
                        label = _mul(invert_runs(g), label) if g else label
                    attach(keep, step, v, label)
            prev = tgt
    return links, labels


def fold(generator_words: Sequence[Word]) -> SubgroupGraph:
    """Stallings folding of the bouquet of the given words.

    Bouquet edges enter a two-way map one at a time.  An edge whose label is
    taken at either end is dropped and the vertices it would identify merge
    at once: the lower id keeps the edges of both, and each new clash joins
    a worklist.  So every vertex is the least bouquet vertex folding onto
    it, whatever order the merges take.  The graph returned is that map."""
    words = tuple(generator_words)
    return SubgroupGraph(words, _fold(words, False)[0])


def rank(graph: SubgroupGraph) -> int:
    """Positive edges - vertices + 1: each edge has an entry at both ends."""
    entries = sum(len(out) for out in graph.links.values())
    return entries // 2 - len(graph.links) + 1


def contains(graph: SubgroupGraph, w: Word) -> bool:
    return _walk(graph.links, graph.basepoint, w) == graph.basepoint


def express(graph: SubgroupGraph, basis: Sequence[Word], w: Word) -> Word:
    """Express a member word in the given subgroup basis.

    `basis` lists subgroup elements (words in the ambient generators) that
    freely generate the subgroup; the result is a word in symbols z[1],
    z[2], ... matching the basis order.  In a free group such an expression
    is unique.  The basis must have as many words as the subgroup's rank,
    and, unless it is the graph's own words, fold to the same subgroup:
    then it is a free basis, since free groups are Hopfian.  The result is
    read off the labelled fold of the basis along w's path.  The graph keeps
    that fold, so the checks run when a basis is first seen and a refused
    basis is refused again on every call.
    """
    key = tuple(basis)
    found = graph._labelled.get(key)
    if found is None:
        n_rank = rank(graph)
        if len(key) != n_rank:
            raise ValueError("basis size %d != subgroup rank %d" % (len(key), n_rank))
        links, labels = _fold(key, True)
        if key != graph.words and not (
                all(_walk(graph.links, 0, b) == 0 for b in key)
                and all(_walk(links, 0, u) == 0 for u in graph.words)):
            raise ValueError("given words are not a free basis of the subgroup "
                             "(they generate another subgroup)")
        graph._labelled[key] = found = links, labels
    links, labels = found
    v, read = graph.basepoint, []
    for g, e in w.runs:
        step = (g, 1) if e > 0 else (g, -1)
        for _ in range(abs(e)):
            u, v = v, links[v].get(step)
            if v is None:
                raise ValueError("word leaves the subgroup graph at %s" % g)
            label = labels.get((u, step))
            if label:
                read += label
    if v != graph.basepoint:
        raise ValueError("word is not in the subgroup (open path)")
    return Word(tuple((Gen("z", (i,)), e) for i, e in reduce_runs(read)))
