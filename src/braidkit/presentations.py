"""Finitely presented groups: a text format plus builders for braid-group families.

Covers Artin braid groups, sphere and punctured-sphere braid groups, the
annular (affine A) and affine C presentations, and the explicit commutator
subgroup presentations used throughout the verification suite.  Z-indexed
relator families (for infinite presentations) live in IndexedPresentation and
are instantiated over a finite index window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .words import (Gen, Word, commutator, free_reduce, invert, letter,
                    multiply, parse_runs, parse_word, power, word_to_text)


@dataclass(frozen=True)
class Presentation:
    name: str
    generators: tuple[Gen, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            twice = next(g for g, k in Counter(self.generators).items() if k > 1)
            raise ValueError("duplicate generator %s in %s" % (twice, self.name))
        for r in self.relators:
            if not r:
                raise ValueError("empty relator in %s" % self.name)
            for g in r.generators():
                if g not in declared:
                    raise ValueError("relator uses undeclared generator %s in %s"
                                     % (g, self.name))


def serialize(p: Presentation) -> str:
    lines = ["group %s" % p.name,
             "gens: " + " ".join(str(g) for g in p.generators)]
    lines += ["rel: " + word_to_text(r) for r in p.relators]
    return "\n".join(lines) + "\n"


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, column: int = 1):
        super().__init__("line %d, column %d: %s" % (line, column, msg))
        self.line = line
        self.column = column


def parse_presentation(text: str) -> Presentation:
    name = None
    gens: list[Gen] = []
    declared: set[Gen] = set()   # gens as a set, for the membership tests
    relators: list[Word] = []
    seen_gens = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] == "group":   # the whole first token, not "groupies"
            if name is not None:
                raise ParseError("second 'group' header; this file already "
                                 "presents %s" % name, lineno)
            name = line[len("group"):].strip()
            if not name:
                raise ParseError("missing group name", lineno, len("group") + 1)
        elif line.startswith("gens:"):
            body = line[len("gens:"):]
            try:
                runs = parse_runs(body)   # each token, before free reduction
            except ValueError as e:
                raise ParseError(str(e), lineno, len("gens:") + 1)
            for g, e in runs:
                if e != 1:
                    raise ParseError("exponent not allowed in generator list", lineno)
                if g in declared:
                    raise ParseError("duplicate generator %s" % g, lineno)
                gens.append(g)
                declared.add(g)
            seen_gens = True
        elif line.startswith("rel:"):
            if not seen_gens:
                raise ParseError("rel: before gens:", lineno)
            body = line[len("rel:"):]
            try:
                w = parse_word(body)
            except ValueError as e:
                raise ParseError(str(e), lineno, len("rel:") + 1)
            for g in w.generators():
                if g not in declared:
                    raise ParseError("undeclared generator %s" % g, lineno)
            if not w:
                raise ParseError("relator is freely trivial", lineno,
                                 len("rel:") + 1)
            relators.append(w)
        else:
            raise ParseError("unrecognized line %r" % line, lineno)
    if name is None:
        raise ParseError("missing 'group' header", 1)
    return Presentation(name, tuple(gens), tuple(relators))


# ---------------------------------------------------------------------------
# generator shorthands

def s(i: int) -> Gen:
    return Gen("s", (i,))


def _braid_relator(a: Gen, b: Gen) -> Word:
    # a b a = b a b
    return free_reduce([(a, 1), (b, 1), (a, 1), (b, -1), (a, -1), (b, -1)])


def _artin_relators(gens) -> list[Word]:
    """Relators of the Artin group of the chain g1 - g2 - ... - gk: the
    commutators of generators two or more apart, in (i, j) order, then the
    braid relations of neighbours."""
    gens = tuple(gens)
    rels = [commutator(letter(a), letter(b))
            for i, a in enumerate(gens) for b in gens[i + 2:]]
    return rels + [_braid_relator(a, b) for a, b in zip(gens, gens[1:])]


def _palindrome(gens) -> list:
    """The runs g1 ... g_(k-1) g_k^2 g_(k-1) ... g1 of a chain (none when
    the chain is empty)."""
    gens = tuple(gens)
    return ([(g, 1) for g in gens[:-1]] + [(g, 2) for g in gens[-1:]]
            + [(g, 1) for g in reversed(gens[:-1])])


# ---------------------------------------------------------------------------
# classical and sphere braid groups

def artin_braid(n: int) -> Presentation:
    if n < 1:
        raise ValueError("need n >= 1")
    gens = tuple(s(i) for i in range(1, n))
    return Presentation("B%d" % n, gens, tuple(_artin_relators(gens)))


def surface_relator(n: int) -> Word:
    # s1 s2 ... s_{n-2} s_{n-1}^2 s_{n-2} ... s1
    return free_reduce(_palindrome(s(i) for i in range(1, n)))


def sphere_braid(n: int) -> Presentation:
    if n < 2:
        raise ValueError("need n >= 2")
    base = artin_braid(n)
    return Presentation("B%d(S2)" % n, base.generators,
                        base.relators + (surface_relator(n),))


# ---------------------------------------------------------------------------
# punctured spheres

def _A(i: int, j: int) -> Gen:
    return Gen("A", (i, j))


def _a_word(j: int, l: int, n: int) -> Word:
    """A_{j,l} for strands n < j < l, as the band word in the strand
    generators."""
    runs = [(s(r - n), 1) for r in range(l - 1, j, -1)]
    runs.append((s(j - n), 2))
    runs += [(s(r - n), -1) for r in range(j + 1, l)]
    return free_reduce(runs)


def punctured_sphere(m: int, n: int) -> Presentation:
    """Braid group of m strands on the sphere with n punctures."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    gens = tuple(_A(i, j) for i in range(1, n + 1) for j in range(n + 1, n + m + 1))
    gens += tuple(s(k) for k in range(1, m))
    rels: list[Word] = []
    for j in range(n + 1, n + m + 1):
        for l in range(j + 1, n + m + 1):
            ajl = _a_word(j, l, n)
            for i in range(1, n + 1):
                aij, ail = letter(_A(i, j)), letter(_A(i, l))
                for k in range(1, n + 1):
                    akl = letter(_A(k, l))
                    if k < i:
                        rels.append(multiply(aij, akl, invert(aij), invert(akl)))
                    elif k == i:
                        rels.append(multiply(aij, ail, invert(aij),
                                             invert(multiply(invert(ajl), ail, ajl))))
                        rels.append(multiply(invert(aij), ail, aij,
                                             invert(multiply(ail, ajl, ail, invert(ajl), invert(ail)))))
                    else:
                        rels.append(multiply(aij, akl, invert(aij),
                                             invert(multiply(invert(ajl), invert(ail), ajl, ail, akl,
                                                             invert(ail), invert(ajl), ail, ajl))))
                        rels.append(multiply(invert(aij), akl, aij,
                                             invert(multiply(ail, ajl, invert(ail), invert(ajl), akl,
                                                             ajl, ail, invert(ajl), invert(ail)))))
    # surface relation
    rels.append(free_reduce([(_A(i, n + m), 1) for i in range(1, n + 1)]
                            + _palindrome(s(r) for r in range(m - 1, 0, -1))))
    # strand generator relations
    rels += artin_braid(m).relators
    for r in range(1, m):
        for i in range(1, n + 1):
            for j in range(n + 1, n + m + 1):
                if r not in (j - n - 1, j - n):
                    rels.append(commutator(letter(s(r)), letter(_A(i, j))))
    for j in range(n + 1, n + m):
        for i in range(1, n + 1):
            rels.append(multiply(letter(s(j - n)), letter(_A(i, j)), invert(letter(s(j - n))),
                                 invert(letter(_A(i, j + 1)))))
    return Presentation("B%d(S2-%dpts)" % (m, n), gens, tuple(rels))


# ---------------------------------------------------------------------------
# annular braid groups (affine A) and the affine C family

def kent_peifer(m: int) -> Presentation:
    """m-strand braid group of the annulus: cyclically indexed strand
    generators s[0..m-1] plus the rotation t."""
    if m < 3:
        raise ValueError("need m >= 3")
    tau = Gen("t")
    gens = tuple(s(i) for i in range(m)) + (tau,)
    rels = _affine_a_relators(m)
    for i in range(m):
        rels.append(multiply(invert(letter(tau)), letter(s(i)), letter(tau),
                             invert(letter(s((i + 1) % m)))))
    return Presentation("KP%d" % m, gens, tuple(rels))


def _affine_a_relators(m: int) -> list[Word]:
    rels = []
    for i in range(m):
        for j in range(i + 1, m):
            if (j - i) not in (1, m - 1):
                rels.append(commutator(letter(s(i)), letter(s(j))))
    for i in range(m):
        rels.append(_braid_relator(s(i), s((i + 1) % m)))
    return rels


def affine_A(m: int) -> Presentation:
    if m < 3:
        raise ValueError("need m >= 3")
    return Presentation("affA%d" % m, tuple(s(i) for i in range(m)),
                        tuple(_affine_a_relators(m)))


def affine_C(m: int) -> Presentation:
    """m-strand braid group of the 3-punctured sphere (affine C_m type)."""
    if m < 2:
        raise ValueError("need m >= 2")
    r1, rm = Gen("r", (1,)), Gen("r", (m,))
    strands = tuple(s(i) for i in range(1, m))
    # the diagram r1 =4= s1 - ... - s_(m-1) =4= rm: nodes not joined commute
    rels = _artin_relators(strands) + [commutator(letter(r1), letter(rm))]
    rels += [commutator(letter(r1), letter(g)) for g in strands[1:]]
    rels += [commutator(letter(rm), letter(g)) for g in strands[:-1]]
    for a, r in ((letter(strands[0]), letter(r1)), (letter(strands[-1]), letter(rm))):
        rels.append(multiply(power(multiply(a, r), 2), power(multiply(r, a), -2)))
    return Presentation("affC%d" % m, (r1, rm) + strands, tuple(rels))


def b22_two_generator() -> Presentation:
    """Two-generator one-relator form of the 2-strand annular braid group."""
    sg, d = Gen("s"), Gen("D")
    rel = commutator(letter(sg), power(letter(d), 2))
    return Presentation("B2(S2-2pts)", (sg, d), (rel,))


# ---------------------------------------------------------------------------
# commutator subgroups of sphere braid groups

def _u(i: int) -> Gen:
    return Gen("u", (i,))


def _v(i: int) -> Gen:
    return Gen("v", (i,))


_W = Gen("w")


def _a_block(n: int) -> Word:
    # v1 ... v_{n-4} v_{n-3}^2 v_{n-4} ... v1
    return free_reduce(_palindrome(_v(i) for i in range(1, n - 2)))


def gamma2_b4() -> Presentation:
    g1, g2, g3 = Gen("g", (1,)), Gen("g", (2,)), Gen("g", (3,))
    rels = (
        power(letter(g3), 4),
        commutator(power(letter(g3), 2), letter(g1)),
        commutator(power(letter(g3), 2), letter(g2)),
        commutator(letter(g3), multiply(letter(g2), letter(g1))),
        free_reduce([(g2, -1), (g1, -1), (g3, -1), (g1, 1), (g2, 1), (g3, -1)]),
        free_reduce([(g1, -2), (g3, -1), (g1, 1), (g3, -1), (g1, 1), (g3, -1)]),
    )
    return Presentation("G2B4(S2)", (g1, g2, g3), rels)


def fullpres(n: int) -> Presentation:
    """Commutator subgroup of the n-strand sphere braid group, as produced by
    coset rewriting over the cyclic abelianization (generators w, u_i, v_j)."""
    if n < 4:
        raise ValueError("need n >= 4")
    gens = (_W,) + tuple(_u(i) for i in range(1, 2 * n - 1)) \
        + tuple(_v(j) for j in range(1, n - 2))
    w = letter(_W)
    u = {i: letter(_u(i)) for i in range(1, 2 * n - 1)}
    v = {j: letter(_v(j)) for j in range(1, n - 2)}
    a = _a_block(n)
    rels = _artin_relators(_v(j) for j in range(1, n - 2))                 # eq1, eq2
    for i in range(1, n - 2):
        rels.append(commutator(w, v[i]))                                     # eq3
    for j in range(2, n - 2):
        for i in range(1, 2 * n - 2):
            rels.append(multiply(u[i], v[j], invert(u[i + 1]), invert(v[j])))  # eq4
    for j in range(2, n - 2):
        rels.append(multiply(u[2 * n - 2], v[j], w, invert(u[1]), invert(w), invert(v[j])))  # eq5
    for i in range(1, 2 * n - 3):
        rels.append(multiply(u[i], v[1], u[i + 2], invert(v[1]), invert(u[i + 1]), invert(v[1])))  # eq6
    rels.append(multiply(u[2 * n - 3], v[1], w, u[1], invert(w), invert(v[1]),
                         invert(u[2 * n - 2]), invert(v[1])))                # eq7
    rels.append(multiply(u[2 * n - 2], v[1], w, u[2], invert(v[1]), invert(u[1]),
                         invert(w), invert(v[1])))                           # eq8
    for i in range(1, 2 * n - 3):
        rels.append(multiply(u[i + 1], invert(u[i + 2]), invert(u[i])))      # eq9
    rels.append(multiply(u[2 * n - 2], w, invert(u[1]), invert(w), invert(u[2 * n - 3])))  # eq10
    rels.append(multiply(w, u[1], invert(u[2]), invert(w), invert(u[2 * n - 2])))          # eq11
    rels.append(multiply(u[2], a, u[2 * n - 3], w))                          # eq12
    rels.append(multiply(u[3], a, u[2 * n - 2], w))                          # eq13
    for i in range(4, 2 * n - 1):
        rels.append(multiply(u[i], a, w, u[i - 3]))                          # eq14
    rels.append(multiply(u[1], a, u[2 * n - 4], w))                          # eq15
    return Presentation("G2B%d(S2)" % n, gens, tuple(rels))


def gamma2_b5() -> Presentation:
    """Trimmed presentation of the commutator subgroup for 5 strands."""
    n = 5
    gens = (_W,) + tuple(_u(i) for i in range(1, 9)) + (_v(1), _v(2))
    w = letter(_W)
    u = {i: letter(_u(i)) for i in range(1, 9)}
    v1, v2 = letter(_v(1)), letter(_v(2))
    rels = _artin_relators((_v(1), _v(2))) + [
        commutator(w, v1),
        commutator(w, v2),
        multiply(u[1], v2, invert(u[2]), invert(v2)),
        multiply(u[2], v2, invert(u[2]), u[1], invert(v2)),
    ]
    for i in range(1, 7):
        rels.append(multiply(u[i], v1, u[i + 2], invert(v1), invert(u[i + 1]), invert(v1)))
    rels.append(multiply(u[7], v1, w, u[1], invert(w), invert(v1), invert(u[8]), invert(v1)))
    rels.append(multiply(u[8], v1, w, u[2], invert(v1), invert(u[1]), invert(w), invert(v1)))
    for i in range(1, 7):
        rels.append(multiply(u[i + 1], invert(u[i + 2]), invert(u[i])))
    rels.append(multiply(u[8], w, invert(u[1]), invert(w), invert(u[7])))
    rels.append(multiply(w, u[1], invert(u[2]), invert(w), invert(u[8])))
    rels.append(multiply(u[2], _a_block(n), u[7], w))
    return Presentation("G2B5(S2)", gens, tuple(rels))


def gamma2_b6plus(n: int) -> Presentation:
    """Two-u-generator presentation of the commutator subgroup for n >= 6."""
    if n < 6:
        raise ValueError("need n >= 6")
    gens = (_u(1), _u(2)) + tuple(_v(j) for j in range(1, n - 2))
    u1, u2 = letter(_u(1)), letter(_u(2))
    v = {j: letter(_v(j)) for j in range(1, n - 2)}
    y = multiply(invert(u2), u1, u2, invert(u1))
    a = _a_block(n)
    rels = _artin_relators(_v(j) for j in range(1, n - 2))
    rels.append(commutator(y, v[1]))
    for j in range(2, n - 2):
        rels.append(multiply(v[j], u2, invert(v[j]), invert(u1)))
        rels.append(multiply(v[j], u1, invert(v[j]), u2, invert(u1)))
    rels.append(multiply(u1, v[1], invert(u1), u2, invert(v[1]), invert(u2), invert(v[1])))
    l = (2 * n - 3) % 6
    k = (2 * n - 3 - l) // 6
    yk = power(y, k)
    if l == 5:
        ayk = multiply(a, yk)
        rels.append(commutator(u1, ayk))
        rels.append(commutator(u2, ayk))
    elif l == 1:
        rels.append(multiply(yk, u1, invert(yk), invert(a), y, u2, a))
        rels.append(multiply(yk, u2, invert(yk), invert(a), y, invert(u1), u2, a))
    else:  # l == 3: 2n-3 is odd, so l is 1, 3 or 5
        rels.append(multiply(yk, invert(u1), invert(yk), invert(a), invert(u2), u1, a))
        rels.append(multiply(yk, u2, invert(yk), invert(a), invert(u2), invert(u1), u2, a))
    return Presentation("G2B%d(S2)" % n, gens, tuple(rels))


# ---------------------------------------------------------------------------
# Z-indexed presentations and windowed instantiation

def shift_families(w: Word, families, k: int) -> Word:
    """w with the index of every letter from the named families raised by k."""
    return Word(tuple((Gen(g.name, (g.indices[0] + k,)), e) if g.name in families
                      else (g, e) for g, e in w.runs))


@dataclass(frozen=True)
class IndexedPresentation:
    """A presentation with Z-indexed generator families.

    Family generators are Gen(family_name, (k,)) for k in Z.  A relator
    family is a Word, its instance at 0; its instance at k is that word with
    every family index raised by k (`shift_families`), so a family written
    as ``parse_word("p[1] p[2]^-1 p[0]^-1")`` stands for the relators
    p[k+1] p[k+2]^-1 p[k]^-1.  Instantiating over a window [-K, K] keeps
    exactly the instances whose family indices all lie in the window; a
    family word with no family letter gives one fixed relator, and the empty
    word gives none.
    """

    name: str
    fixed_generators: tuple[Gen, ...]
    families: tuple[str, ...]
    fixed_relators: tuple[Word, ...]
    relator_families: tuple[Word, ...]

    def __post_init__(self):
        for n, w in enumerate(self.fixed_relators):
            if not isinstance(w, Word):
                raise TypeError("fixed relator %d of %s is a %s, not a Word"
                                % (n, self.name, type(w).__name__))
        for n, w in enumerate(self.relator_families):
            if not isinstance(w, Word):
                raise TypeError("relator family %d of %s is a %s, not a Word"
                                % (n, self.name, type(w).__name__))
            for g in w.generators():
                if g.name in self.families and len(g.indices) != 1:
                    raise ValueError("relator family %d of %s uses %s, which "
                                     "is not a singly indexed family generator"
                                     % (n, self.name, g))

    def instantiate(self, window: int) -> Presentation:
        if window < 1:
            raise ValueError("window must be >= 1")
        gens = tuple(self.fixed_generators) + tuple(
            Gen(f, (k,)) for f in self.families for k in range(-window, window + 1))
        rels = list(self.fixed_relators)
        for w in self.relator_families:
            offsets = [g.indices[0] for g in w.generators() if g.name in self.families]
            if not offsets:
                if w:
                    rels.append(w)
                continue
            # with offsets o, all indices k + o lie in [-K, K] exactly for these k
            for k in range(-window - min(offsets), window - max(offsets) + 1):
                rels.append(shift_families(w, self.families, k))
        return Presentation("%s[K=%d]" % (self.name, window), gens, tuple(rels))


def gamma2_annulus(m: int) -> IndexedPresentation:
    """Commutator subgroup of the m-strand annular braid group: families
    p_k, r_k over Z plus fixed q_i, with the standard relator schema."""
    if m < 3:
        raise ValueError("need m >= 3")
    q = {i: Gen("q", (i,)) for i in range(3, m)}
    fams = [parse_word("p[1] p[2]^-1 p[0]^-1"), parse_word("r[1] r[2]^-1 r[0]^-1")]
    if m == 3:
        fams.append(parse_word("r[0] p[1] r[2] p[2]^-1 r[1]^-1 p[0]^-1"))
        return IndexedPresentation("G2annulus3", (), ("p", "r"), (), tuple(fams))
    fams.append(parse_word("p[0] q[3] p[2] q[3]^-1 p[1]^-1 q[3]^-1"))
    for i in range(4, m):
        fams.append(parse_word("p[0] q[%d] p[1]^-1 q[%d]^-1" % (i, i)))
    fams.append(parse_word("r[0] p[1] r[1]^-1 p[0]^-1"))
    for i in range(3, m - 1):
        fams.append(parse_word("r[0] q[%d] r[1]^-1 q[%d]^-1" % (i, i)))
    fams.append(parse_word("r[0] q[%d] r[2] q[%d]^-1 r[1]^-1 q[%d]^-1"
                           % (m - 1, m - 1, m - 1)))
    return IndexedPresentation("G2annulus%d" % m, tuple(q.values()), ("p", "r"),
                               tuple(_artin_relators(q.values())), tuple(fams))


def b3_punctured_gamma2_ab() -> IndexedPresentation:
    """Relator families for the abelianized commutator subgroup of the
    3-strand braid group of the twice-punctured disc: families alpha_i,
    beta_i plus two free generators u, v.  The relator families are the
    abelianized conjugation relations of the u,v action."""
    fams = tuple(parse_word(text) for text in (
        "alpha[0] beta[1]",
        "beta[-1] alpha[-1]^-1 beta[1]",
        "beta[2] alpha[0]^-1 alpha[2]^-1",
        "beta[-1] alpha[-2] alpha[-1]^-1 alpha[1]^-1 beta[2]^-1 alpha[2] "
        "beta[1] alpha[0]"))
    return IndexedPresentation("G2B3(D2-1pt)ab", (Gen("u"), Gen("v")),
                               ("alpha", "beta"), (), fams)
