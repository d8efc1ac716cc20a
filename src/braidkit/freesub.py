"""Finitely generated subgroups of free groups.

Subgroups are represented by their folded core graph (Stallings folding).
Membership is edge tracing; `express` rewrites a member word in a chosen
basis of the subgroup, via the graph's own spanning-tree generators and a
Nielsen change of basis.  Also provides Schreier generators for finite-index
and Z-index kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .words import (IDENTITY, Gen, Word, free_reduce, invert, letter, multiply,
                    power)


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)
        return min(ra, rb)


@dataclass
class SubgroupGraph:
    """Folded core graph of a subgroup; vertex 0 is the basepoint."""

    basepoint: int
    edges: dict[tuple[int, Gen], int]     # (vertex, gen) -> vertex, positive direction
    generator_words: tuple[Word, ...]
    _tree: Optional[dict] = field(default=None, repr=False)
    _basis_cache: dict = field(default_factory=dict, repr=False)

    def step(self, v: int, g: Gen, sign: int) -> Optional[int]:
        if sign > 0:
            return self.edges.get((v, g))
        for (u, h), w in self.edges.items():
            if h == g and w == v:
                return u
        return None


def fold(generator_words: Sequence[Word]) -> SubgroupGraph:
    """Stallings folding of the bouquet of the given words."""
    uf = _UnionFind()
    next_vertex = 1
    edges: list[tuple[int, Gen, int]] = []   # (u, g, v) meaning u --g--> v
    for w in generator_words:
        prev = 0
        letters = list(w.letters())
        for idx, (g, sign) in enumerate(letters):
            tgt = 0 if idx == len(letters) - 1 else next_vertex
            if tgt != 0:
                next_vertex += 1
            if sign > 0:
                edges.append((prev, g, tgt))
            else:
                edges.append((tgt, g, prev))
            prev = tgt
    # fold until no vertex has two same-labelled edges in the same direction
    while True:
        out_seen: dict[tuple[int, Gen], int] = {}
        in_seen: dict[tuple[int, Gen], int] = {}
        merge = None
        canon = [(uf.find(u), g, uf.find(v)) for u, g, v in edges]
        for u, g, v in canon:
            if (u, g) in out_seen and out_seen[(u, g)] != v:
                merge = (v, out_seen[(u, g)])
                break
            out_seen[(u, g)] = v
            if (v, g) in in_seen and in_seen[(v, g)] != u:
                merge = (u, in_seen[(v, g)])
                break
            in_seen[(v, g)] = u
        if merge is None:
            edges = sorted(set(canon))
            break
        uf.union(*merge)
    edge_map = {(u, g): v for u, g, v in edges}
    return SubgroupGraph(uf.find(0), edge_map, tuple(generator_words))


def _spanning_tree(graph: SubgroupGraph):
    """BFS tree from the basepoint; returns (path words to each vertex,
    ordered non-tree edges)."""
    adjacency: dict[int, list[tuple[Gen, int, int]]] = {}
    for (u, g), v in graph.edges.items():
        adjacency.setdefault(u, []).append((g, 1, v))
        adjacency.setdefault(v, []).append((g, -1, u))
    paths = {graph.basepoint: IDENTITY}
    frontier = [graph.basepoint]
    tree_edges = set()
    while frontier:
        nxt = []
        for u in frontier:
            for g, sign, v in sorted(adjacency.get(u, []), key=lambda t: (t[0], t[1])):
                if v not in paths:
                    paths[v] = multiply(paths[u], letter(g, sign))
                    tree_edges.add((u, g) if sign > 0 else (v, g))
                    nxt.append(v)
        frontier = nxt
    nontree = sorted(e for e in graph.edges if e not in tree_edges)
    return paths, nontree


def _native_basis(graph: SubgroupGraph):
    """One free generator per non-tree edge: path(u) g path(v)^-1."""
    if graph._tree is None:
        paths, nontree = _spanning_tree(graph)
        basis = []
        for (u, g) in nontree:
            v = graph.edges[(u, g)]
            basis.append(multiply(paths[u], letter(g), invert(paths[v])))
        graph._tree = {"paths": paths, "nontree": nontree, "basis": basis}
    return graph._tree


def rank(graph: SubgroupGraph) -> int:
    return len(_native_basis(graph)["basis"])


def contains(graph: SubgroupGraph, w: Word) -> bool:
    v = graph.basepoint
    for g, sign in w.letters():
        v = graph.step(v, g, sign)
        if v is None:
            return False
    return v == graph.basepoint


membership = contains


def _trace_native(graph: SubgroupGraph, w: Word) -> Word:
    """Rewrite a member word over the graph's own non-tree-edge generators
    n[1], n[2], ...."""
    tree = _native_basis(graph)
    nontree = tree["nontree"]
    index = {e: i + 1 for i, e in enumerate(nontree)}
    v = graph.basepoint
    runs = []
    for g, sign in w.letters():
        if sign > 0:
            u = v
            v = graph.step(v, g, 1)
            if v is None:
                raise ValueError("word leaves the subgroup graph at %s" % g)
            e = (u, g)
        else:
            v2 = graph.step(v, g, -1)
            if v2 is None:
                raise ValueError("word leaves the subgroup graph at %s" % g)
            e = (v2, g)
            v = v2
        if e in index:
            runs.append((Gen("n", (index[e],)), sign))
    if v != graph.basepoint:
        raise ValueError("word is not in the subgroup (open path)")
    return free_reduce(runs)


def express(graph: SubgroupGraph, basis: Sequence[Word], w: Word,
            symbol: str = "z") -> Word:
    """Express a member word in the given subgroup basis.

    `basis` lists subgroup elements (words in the ambient generators) that
    freely generate the subgroup; the result is a word in symbols z[1],
    z[2], ... matching the basis order.  In a free group such an expression
    is unique.
    """
    key = (symbol,) + tuple(basis)
    if key not in graph._basis_cache:
        graph._basis_cache[key] = _basis_change(graph, basis, symbol)
    table = graph._basis_cache[key]
    native = _trace_native(graph, w)
    runs = []
    for g, e in native.runs:
        runs.extend(power(table[g], e).runs)
    return free_reduce(runs)


def _basis_change(graph: SubgroupGraph, basis: Sequence[Word], symbol: str):
    """Expressions of the graph's native generators in the user basis,
    computed by Nielsen-reducing the traced basis words."""
    n_rank = rank(graph)
    if len(basis) != n_rank:
        raise ValueError("basis size %d != subgroup rank %d" % (len(basis), n_rank))
    pairs = []   # (word over native gens, word over basis symbols)
    for i, bw in enumerate(basis):
        pairs.append([_trace_native(graph, bw), letter(Gen(symbol, (i + 1,)))])
    # Nielsen reduction: repeatedly shorten some u_i by a (signed) u_j
    changed = True
    while changed:
        changed = False
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                if i == j:
                    continue
                ui, ei = pairs[i]
                uj, ej = pairs[j]
                for su in (1, -1):
                    for sj in (1, -1):
                        cand = multiply(power(ui, su), power(uj, sj))
                        if len(cand) < len(ui):
                            if su == 1:
                                pairs[i] = [cand, multiply(ei, power(ej, sj))]
                            else:
                                # u_i^-1 u_j^s short => replace u_i by its inverse
                                pairs[i] = [invert(cand),
                                            multiply(power(ej, -sj), ei)]
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
            if changed:
                break
    table = {}
    for u, e in pairs:
        if len(u) != 1:
            raise ValueError("given words are not a free basis of the subgroup "
                             "(Nielsen reduction stalled at %s)" % u)
        (g, exp), = u.runs
        table[g] = e if exp == 1 else invert(e)
    if len(table) != n_rank:
        raise ValueError("given words do not span the subgroup")
    return table


# ---------------------------------------------------------------------------
# Schreier generators

@dataclass(frozen=True)
class CosetTable:
    """Cosets of a kernel, indexed by elements of a finite quotient model."""

    cosets: tuple
    transitions: dict        # (coset, Gen) -> coset

    def trace(self, start, w: Word):
        inverse = {}
        for (c, g), d in self.transitions.items():
            inverse[(d, g)] = c
        v = start
        for g, sign in w.letters():
            v = self.transitions[(v, g)] if sign > 0 else inverse[(v, g)]
        return v


def coset_table(gens: Sequence[Gen], model, images: dict[Gen, object]) -> CosetTable:
    from .models import finite_closure
    elems = finite_closure(model, [model.identity()] + [images[g] for g in gens])
    cosets = tuple(sorted(elems, key=repr))
    transitions = {(c, g): model.mul(c, images[g]) for c in cosets for g in gens}
    return CosetTable(cosets, transitions)


def schreier_basis(gens: Sequence[Gen], model, images: dict[Gen, object],
                   transversal: Sequence[Word]) -> list[Word]:
    """Schreier generators u x (rep(ux))^-1 of the kernel, trivial ones dropped.

    The transversal must hit each coset exactly once, starting with the
    identity coset.
    """
    table = coset_table(gens, model, images)
    reps = {}
    for t in transversal:
        c = table.trace(model.identity(), t)
        if c in reps:
            raise ValueError("transversal word %s repeats coset %r" % (t, c))
        reps[c] = t
    if set(reps) != set(table.cosets):
        raise ValueError("transversal misses cosets")
    if transversal and table.trace(model.identity(), transversal[0]) != model.identity():
        raise ValueError("first transversal word must represent the identity coset")
    out = []
    for t in transversal:
        c = table.trace(model.identity(), t)
        for g in gens:
            c2 = model.mul(c, images[g])
            w = multiply(t, letter(g), invert(reps[c2]))
            if w:
                out.append(w)
    return out


def z_kernel_basis(gens: Sequence[Gen], weights: dict[Gen, int], t: Gen,
                   window: int) -> list[tuple[int, Gen, Word]]:
    """Basis of the kernel of the weight map F -> Z with transversal {t^i}:
    for each generator x != t and coset i in [-window, window], the element
    t^i x t^-(i+weight(x)).  Returns (coset, generator, word) triples."""
    if weights.get(t) != 1:
        raise ValueError("transversal generator must have weight 1")
    out = []
    for i in range(-window, window + 1):
        for g in gens:
            if g == t:
                continue
            w = free_reduce([(t, i), (g, 1), (t, -(i + weights[g]))])
            out.append((i, g, w))
    return out
