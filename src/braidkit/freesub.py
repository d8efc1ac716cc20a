"""Finitely generated subgroups of free groups.

Subgroups are represented by their folded core graph, built by the worklist
folding of Touikan, "A fast algorithm for Stallings' folding process" (IJAC
2006).  The graph is the one two-way map vertex -> {(gen, +-1): neighbour}
that folding builds, and one walk over it serves membership and rewriting;
the sorted positive edges are derived from it on demand.  `express` rewrites
a member word in a chosen basis of the subgroup, via the graph's own
spanning-tree generators and a Nielsen change of basis.  Schreier generators
of finite-index subgroups come from `reidschreier.rs_coset_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .words import (Gen, Word, free_reduce, invert, letter, multiply, power,
                    substitute_runs)


def _walk(links: dict, v, w: Word, crossed: Optional[list] = None):
    """The end of w read from v in a two-way map, None if w leaves it; each
    letter read appends (positive edge (u, gen), sign) to `crossed`."""
    for g, e in w.runs:
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            u, v = v, links[v].get((g, sign))
            if v is None:
                return None
            if crossed is not None:
                crossed.append(((u, g) if sign > 0 else (v, g), sign))
    return v


@dataclass
class SubgroupGraph:
    """Folded core graph of a subgroup, as the two-way map
    vertex -> {(gen, +-1): neighbour} that `fold` builds; every vertex has
    an entry, and vertex 0 is the basepoint."""

    links: dict[int, dict[tuple[Gen, int], int]]
    _tree: Optional[dict] = field(default=None, repr=False)
    _basis_cache: dict = field(default_factory=dict, repr=False)
    basepoint = 0   # fold starts and ends every bouquet word here

    @property
    def edges(self) -> dict[tuple[int, Gen], int]:
        """(vertex, gen) -> vertex for each positive edge, in sorted order."""
        return dict(sorted(((u, g), v) for u, out in self.links.items()
                           for (g, sign), v in out.items() if sign > 0))


def fold(generator_words: Sequence[Word]) -> SubgroupGraph:
    """Stallings folding of the bouquet of the given words.

    Bouquet edges enter a two-way map one at a time.  An edge whose label is
    taken at either end is dropped and the vertices it would identify merge
    at once: the lower id keeps the edges of both, and each new clash joins
    a worklist.  So every vertex is the least bouquet vertex folding onto
    it, whatever order the merges take.  The graph returned is that map."""
    links: dict[int, dict[tuple[Gen, int], int]] = {0: {}}
    merged: dict[int, int] = {}   # merged-away vertex -> vertex it went into
    clashes: list[tuple[int, int]] = []   # vertices still to merge

    def live(v: int) -> int:
        while v in merged:
            v = merged[v]
        return v

    def attach(u: int, key: tuple[Gen, int], v: int):
        there, back = links[u].get(key), links[v].get((key[0], -key[1]))
        if there is not None:
            if there != v:
                clashes.append((there, v))
        elif back is not None:
            clashes.append((back, u))
        else:
            links[u][key] = v
            links[v][(key[0], -key[1])] = u

    next_vertex = 1
    for w in generator_words:
        prev = 0
        letters = list(w.letters())
        for idx, key in enumerate(letters):
            tgt = 0 if idx == len(letters) - 1 else next_vertex
            if tgt != 0:
                links[tgt] = {}
                next_vertex += 1
            attach(live(prev), key, tgt)
            while clashes:
                a, b = clashes.pop()
                keep, gone = sorted((live(a), live(b)))
                if keep == gone:
                    continue
                merged[gone] = keep
                for (g, sign), v in links.pop(gone).items():
                    if v == gone:
                        v = keep
                    else:
                        del links[v][(g, -sign)]
                    attach(keep, (g, sign), v)
            prev = tgt
    return SubgroupGraph(links)


def _native_index(graph: SubgroupGraph) -> dict:
    """Number i of each native generator n[i] = path(u) g path(v)^-1, one
    per edge (u, g) -> v off the BFS spanning tree from the basepoint,
    numbered in sorted edge order."""
    if graph._tree is None:
        queue, seen, tree_edges = [graph.basepoint], {graph.basepoint}, set()
        for u in queue:
            for (g, sign), v in sorted(graph.links[u].items()):
                if v not in seen:
                    seen.add(v)
                    tree_edges.add((u, g) if sign > 0 else (v, g))
                    queue.append(v)
        nontree = [e for e in graph.edges if e not in tree_edges]
        graph._tree = {e: i + 1 for i, e in enumerate(nontree)}
    return graph._tree


def rank(graph: SubgroupGraph) -> int:
    return len(_native_index(graph))


def contains(graph: SubgroupGraph, w: Word) -> bool:
    return _walk(graph.links, graph.basepoint, w) == graph.basepoint


membership = contains


def _trace_native(graph: SubgroupGraph, w: Word) -> Word:
    """Rewrite a member word over the graph's own non-tree-edge generators
    n[1], n[2], ...."""
    index = _native_index(graph)
    crossed: list = []
    end = _walk(graph.links, graph.basepoint, w, crossed)
    if end is None:
        g, _ = list(w.letters())[len(crossed)]
        raise ValueError("word leaves the subgroup graph at %s" % g)
    if end != graph.basepoint:
        raise ValueError("word is not in the subgroup (open path)")
    return free_reduce((Gen("n", (index[e],)), sign)
                       for e, sign in crossed if e in index)


def express(graph: SubgroupGraph, basis: Sequence[Word], w: Word) -> Word:
    """Express a member word in the given subgroup basis.

    `basis` lists subgroup elements (words in the ambient generators) that
    freely generate the subgroup; the result is a word in symbols z[1],
    z[2], ... matching the basis order.  In a free group such an expression
    is unique.
    """
    key = tuple(basis)
    if key not in graph._basis_cache:
        graph._basis_cache[key] = _basis_change(graph, basis)
    return Word(substitute_runs(_trace_native(graph, w).runs,
                                graph._basis_cache[key]))


def _basis_change(graph: SubgroupGraph, basis: Sequence[Word]) -> dict:
    """Expressions, as runs, of the graph's native generators in the user
    basis, computed by Nielsen-reducing the traced basis words."""
    n_rank = rank(graph)
    if len(basis) != n_rank:
        raise ValueError("basis size %d != subgroup rank %d" % (len(basis), n_rank))
    pairs = []   # (word over native gens, word over basis symbols)
    for i, bw in enumerate(basis):
        pairs.append((_trace_native(graph, bw), letter(Gen("z", (i + 1,)))))
    # Nielsen reduction: repeatedly shorten some u_i by a (signed) u_j
    while (found := _shortening(pairs)) is not None:
        i, j, su, sj, cand = found
        ei, ej = pairs[i][1], pairs[j][1]
        if su == 1:
            pairs[i] = (cand, multiply(ei, power(ej, sj)))
        else:
            # u_i^-1 u_j^s short => replace u_i by its inverse
            pairs[i] = (invert(cand), multiply(power(ej, -sj), ei))
    table = {}
    for u, e in pairs:
        if len(u) != 1:
            raise ValueError("given words are not a free basis of the subgroup "
                             "(Nielsen reduction stalled at %s)" % u)
        (g, exp), = u.runs
        if g in table:
            raise ValueError("given words are not a free basis of the subgroup "
                             "(native generator %s appears twice)" % g)
        table[g] = (e if exp == 1 else invert(e)).runs
    return table


def _shortening(pairs):
    """The first (i, j, su, sj, u_i^su u_j^sj), in that loop order, whose
    product is shorter than u_i; None when the u's are Nielsen reduced.  A
    u_i of one letter is skipped: it could only shrink to the empty word,
    by a u_j equal to it or its inverse, which `_basis_change` reports."""
    for i, (ui, _) in enumerate(pairs):
        if len(ui) == 1:
            continue
        for j, (uj, _) in enumerate(pairs):
            if i == j:
                continue
            for su in (1, -1):
                for sj in (1, -1):
                    cand = multiply(power(ui, su), power(uj, sj))
                    if len(cand) < len(ui):
                        return i, j, su, sj, cand
    return None

