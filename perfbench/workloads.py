"""Workloads of the braidkit benchmark: seeded inputs, timed queries and
answer checks.

A query has three steps.  `make` builds its input from a seeded random stream
and is not timed.  `solve` is the timed part: the calls into braidkit that a
user waits for.  `check` decides from the input and the answer whether the
answer is right, and returns the input properties worth recording.

Every workload runs every query class, so that every run reports every
end-to-end metric.  The group of classes a workload is named for runs at full
size; the other groups run at probe size.  Each class runs twice per round,
the in-process probes four times, and the two verify classes outside
`verify-cli` once.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Any, Callable

from braidkit import (freesub, garside, hom, models, presentations,
                      reidschreier, series, verify, words)
from braidkit.words import Gen, Word

# ---------------------------------------------------------------------------
# frozen reference answers

# (id, status) of every check in `braidkit verify`.  The eight FAIL ids are
# the five documented reference discrepancies; a run that flips any status
# is a wrong answer.
VERIFY_STATUS = dict(pair.split(":") for pair in """
ab-sphere-n3:PASS ab-sphere-n4:PASS ab-sphere-n5:PASS ab-sphere-n6:PASS
ab-sphere-n7:PASS ab-sphere-n8:PASS ab-punctured-m1-n1:FAIL
ab-punctured-m1-n2:FAIL ab-punctured-m1-n3:FAIL ab-punctured-m1-n4:FAIL
ab-punctured-m2-n1:PASS ab-punctured-m2-n2:PASS ab-punctured-m2-n3:PASS
ab-punctured-m2-n4:PASS ab-punctured-m3-n1:PASS ab-punctured-m3-n2:PASS
ab-punctured-m3-n3:PASS ab-punctured-m3-n4:PASS ab-punctured-m4-n1:PASS
ab-punctured-m4-n2:PASS ab-punctured-m4-n3:PASS ab-punctured-m4-n4:PASS
snf-18-18:PASS coker-rank3-18-18:PASS mat-u-inverse:PASS mat-v-inverse:PASS
mat-commutator:PASS mat-c-inverse:PASS mat-nested-commutator:PASS
lattice-restrict-u:PASS lattice-restrict-v:PASS template-conjugates:PASS
template-commutator-columns:PASS lcs-z2-free-ranks:PASS
monodromy-fibonacci:PASS lcs-torus-small:PASS rs-reproduce-n4:FAIL
rs-reproduce-n5:FAIL hom-sphere4:PASS hom-g2b4:PASS
hom-g2b4-finite-order:PASS hom-g2b4-conjugate:PASS
hom-affine-c-retract-m2:PASS hom-affine-c-retract-m3:PASS
hom-affine-c-retract-m4:PASS hom-punctured-4-2:PASS
braid-eq-braid-relation:PASS braid-eq-conjugate:PASS
braid-eq-ab-squared:PASS braid-perm-a:PASS braid-perm-b:PASS
schreier-basis-printed:FAIL uaction-table:PASS vaction-table:PASS
commutator-exponent-sums:PASS z-kernel-basis-rows:PASS
annulus-coinvariants-m3:PASS annulus-coinvariants-m4:PASS
annulus-coinvariants-m5:FAIL punctured-b3-rank4:PASS half-twist-z2:PASS
perfect-g2b5:PASS perfect-sphere6-kernel:PASS rank2-g2b4:PASS hat-full:PASS
hat-centre:PASS
""".split())
VERIFY_FILTER = "mat-*"

# A query still running after this long fails, so that a run ends in time.
QUERY_TIMEOUT_S = 60

# ranks R_2..R_8 printed by `lcs-ranks --max-i 8`
LCS_RANKS = {"z2-free": [1, 2, 3, 5, 7, 11, 16],
             "torus": [0, 3, 5, 8, 14, 23, 41]}

# windowed coinvariants at any window K >= 4: (system, invariants)
COINVARIANTS = {"annulus-m3": "Z^4", "annulus-m4": "Z^2", "annulus-m5": "1",
                "b3-punctured": "Z^4"}


def kernel_answer(n: int) -> str:
    """Abelianized commutator subgroup of the n-strand sphere braid group."""
    return "Z^2" if n == 4 else "1"


# ---------------------------------------------------------------------------
# sizes

# The full sizes keep one query of each class under a second on a 2-core
# machine, so that a run of 35 s has several samples of each class.
SIZES = {
    "full": dict(kernel_n=7, raw_n=9, g2g3_n=8, window=12,
                 braid=(8, 120), hom=(4, 2, 8), subgroup=(12, 80, 3),
                 cli_braid=(4, 24), cli_basis=(4, 12)),
    "probe": dict(kernel_n=5, raw_n=6, g2g3_n=5, window=6,
                  braid=(4, 40), hom=(3, 1, 8), subgroup=(4, 12, 4),
                  cli_braid=(4, 24), cli_basis=(4, 12)),
    "smoke": dict(kernel_n=4, raw_n=4, g2g3_n=4, window=4,
                  braid=(3, 8), hom=(3, 1, 2), subgroup=(2, 4, 1),
                  cli_braid=(3, 6), cli_basis=(2, 4)),
}

GROUPS = {
    "cli": ("import_s", "verify_full_s", "verify_filtered_s", "cli_query_s"),
    "kernel": ("kernel_ab_s", "kernel_raw_ab_s", "g2g3_s", "coinvariants_s"),
    "words": ("braid_eq_s", "hom_braid_s", "subgroup_s"),
}

WORKLOADS = {
    # what users type: start-up and the verify suite dominate
    "verify-cli": dict(focus="cli", cli_kinds=("braid-eq", "member", "ab",
                                                "hom-check", "lcs-ranks")),
    # Smith forms, Reidemeister-Schreier and Tietze on sphere-braid kernels
    "kernel-ab": dict(focus="kernel", cli_kinds=("ab",)),
    # Garside normal forms, braid-model products and Stallings folds
    "word-problems": dict(focus="words", cli_kinds=("braid-eq",)),
}


# ---------------------------------------------------------------------------
# random words

def _s(i: int) -> Gen:
    return Gen("s", (i,))


def random_word(rng: random.Random, gens, length: int, signs=None) -> Word:
    """A freely reduced word of exactly `length` letters, with the given
    exponent signs if any."""
    letters: list = []
    while len(letters) < length:
        g = rng.choice(gens)
        e = signs[len(letters)] if signs else rng.choice((1, -1))
        if letters and letters[-1] == (g, -e):
            continue
        letters.append((g, e))
    return words.free_reduce(letters)


def _letters(w: Word) -> list:
    return list(w.letters())


def _artin_relators(n: int) -> list[list]:
    out = []
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            out.append([(_s(i), 1), (_s(j), 1), (_s(i), -1), (_s(j), -1)])
    for i in range(1, n - 1):
        a, b = _s(i), _s(i + 1)
        out.append([(a, 1), (b, 1), (a, 1), (b, -1), (a, -1), (b, -1)])
    return out


def braid_pair(rng: random.Random, n: int, length: int, equal: bool):
    """Two braid words that are equal (the second has conjugated relators
    inserted) or unequal (one more generator inserted, which changes the
    exponent sum, an invariant of the braid group)."""
    gens = [_s(i) for i in range(1, n)]
    w = random_word(rng, gens, length)
    other = _letters(w)
    rels = _artin_relators(n) or [[(gens[0], 1), (gens[0], -1)]]
    for _ in range(max(1, length // 25)):
        r = rng.choice(rels)
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        if rng.random() < 0.5:
            r = [(g, -e) for g, e in reversed(r)]
        u = _letters(random_word(rng, gens, rng.randrange(3)))
        u_inv = [(g, -e) for g, e in reversed(u)]
        pos = rng.randrange(len(other) + 1)
        other[pos:pos] = u + r + u_inv
    if not equal:
        pos = rng.randrange(len(other) + 1)
        other[pos:pos] = [(rng.choice(gens), rng.choice((1, -1)))]
    return w, words.free_reduce(other)


def even_basis(rng: random.Random, k: int, length: int) -> list[Word]:
    """k random words of even length in F(a, b, c) that freely generate the
    subgroup they span.  Every element of that subgroup has even length, so
    inserting one letter into a member always gives a non-member."""
    gens = [Gen("a"), Gen("b"), Gen("c")]
    while True:
        basis = [random_word(rng, gens, length + length % 2)
                 for _ in range(k)]
        if nielsen_reduced(basis):
            return basis


def nielsen_reduced(basis) -> bool:
    """Whether in every product x y of two words of the basis or their
    inverses (y != x^-1), fewer than half of x and of y cancel.  Such a set
    is Nielsen reduced, hence a free basis of the subgroup it generates."""
    elems = [_letters(w) for w in basis]
    elems += [[(g, -e) for g, e in reversed(x)] for x in elems]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if j == (i + len(basis)) % len(elems):
                continue
            c = 0
            while c < min(len(x), len(y)) and x[-1 - c] == (y[c][0], -y[c][1]):
                c += 1
            if 2 * c >= len(x) or 2 * c >= len(y):
                return False
    return True


def basis_product(rng: random.Random, k: int, factors: int) -> Word:
    """A random freely reduced word in the basis symbols z[1..k]."""
    return random_word(rng, [Gen("z", (i + 1,)) for i in range(k)], factors)


def _z_images(basis) -> dict:
    return {Gen("z", (i + 1,)): b for i, b in enumerate(basis)}


def non_member(rng: random.Random, w: Word) -> Word:
    letters = _letters(w)
    pos = rng.randrange(len(letters) + 1)
    letters[pos:pos] = [(rng.choice([Gen("a"), Gen("b"), Gen("c")]),
                         rng.choice((1, -1)))]
    return words.free_reduce(letters)


# ---------------------------------------------------------------------------
# presentation variants: the same group, relators reordered, rotated and
# inverted by the seed.  Only the small ambient presentations of the CLI `ab`
# query vary this way: on the rewritten kernels some orders make the dense
# Smith form blow up (see README.md, "Known defect").

def relator_plan(rng: random.Random, count: int) -> list[tuple[int, int, bool]]:
    order = list(range(count))
    rng.shuffle(order)
    return [(i, rng.randrange(64), rng.random() < 0.5) for i in order]


def _rotate(w: Word, k: int, flip: bool) -> Word:
    runs = list(w.runs)
    if len(runs) > 1 and runs[0][0] != runs[-1][0]:
        k %= len(runs)
        runs = runs[k:] + runs[:k]
    if flip:
        runs = [(g, -e) for g, e in reversed(runs)]
    return Word(tuple(runs))


def reorder(p, plan):
    rels = [_rotate(p.relators[i], k, flip) for i, k, flip in plan]
    return dataclasses.replace(p, relators=tuple(rels))


# ---------------------------------------------------------------------------
# query classes

@dataclass
class Query:
    make: Callable[[random.Random], Any]
    solve: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[bool, dict]]
    cli: bool = False


def no_input(_rng):
    return None


def _kernel_ab(n: int) -> Query:
    def solve(_):
        p = presentations.sphere_braid(n)
        rs = reidschreier.rs_finite_cyclic(p, 2 * (n - 1), _s(1))
        tz = reidschreier.tietze_eliminate(rs)
        return tz, series.abelianization(tz.presentation)

    def check(_, out):
        tz, ab = out
        pres = tz.presentation
        return str(ab) == kernel_answer(n), {
            "n": n, "tietze_gens": len(pres.generators),
            "tietze_relators": len(pres.relators)}
    return Query(no_input, solve, check)


def matrix_properties(p) -> dict:
    """Shape, density and share of +-1 entries of a relator matrix."""
    rows = [words.exponent_vector(r, p.generators) for r in p.relators]
    cells = len(rows) * len(p.generators)
    nonzero = sum(1 for r in rows for x in r if x)
    units = sum(1 for r in rows for x in r if x in (1, -1))
    return {"shape": [len(rows), len(p.generators)],
            "density": nonzero / cells if cells else 0.0,
            "unit_frac": units / nonzero if nonzero else 0.0}


def _kernel_raw_ab(n: int) -> Query:
    def solve(_):
        p = presentations.sphere_braid(n)
        rs = reidschreier.rs_finite_cyclic(p, 2 * (n - 1), _s(1))
        return rs, series.abelianization(rs.presentation)

    def check(_, out):
        rs, ab = out
        return str(ab) == kernel_answer(n), dict(
            n=n, **matrix_properties(rs.presentation))
    return Query(no_input, solve, check)


def _g2g3(n: int) -> Query:
    def solve(_):
        return series.gamma2_mod_gamma3(presentations.sphere_braid(n), _s(1))

    def check(_, ab):
        # the second lower central quotient of a sphere braid group is
        # trivial for n >= 3
        return str(ab) == "1", {"n": n}
    return Query(no_input, solve, check)


def _coinvariant_systems():
    return {"annulus-m3": lambda: presentations.gamma2_annulus(3),
            "annulus-m4": lambda: presentations.gamma2_annulus(4),
            "annulus-m5": lambda: presentations.gamma2_annulus(5),
            "b3-punctured": presentations.b3_punctured_gamma2_ab}


def _coinvariants(window: int) -> Query:
    def solve(_):
        return {name: series.windowed_coinvariants(build(), window=window)
                for name, build in _coinvariant_systems().items()}

    def check(_, out):
        ok = all(str(out[name].invariants) == COINVARIANTS[name]
                 and out[name].stable for name in COINVARIANTS)
        return ok, {"window": window}
    return Query(no_input, solve, check)


def _braid_eq(n: int, length: int) -> Query:
    def make(rng):
        equal = rng.random() < 0.5
        return equal, braid_pair(rng, n, length, equal)

    def solve(inp):
        _equal, (w1, w2) = inp
        return garside.normal_form(w1, n), garside.normal_form(w2, n)

    def check(inp, out):
        equal, (w1, w2) = inp
        nf1, nf2 = out
        return (nf1 == nf2) == equal, {
            "n": n, "letters": (len(w1) + len(w2)) / 2,
            "canonical": sum(abs(nf.power) + len(nf.factors)
                             for nf in out) / 2,
            "equal": equal}
    return Query(make, solve, check)


def _hom_assignment(rng, n: int, conj_len: int, square: int):
    """Images g s_i g^-1 of the generators of B_n, with the image of
    s_square squared (0: none squared).  The signs of g alternate, so that
    the cost of a query depends little on the seed."""
    gens = [_s(i) for i in range(1, n)]
    g = random_word(rng, gens, conj_len,
                    [(-1) ** k for k in range(conj_len)])
    images = {}
    for i in range(1, n):
        e = 2 if i == square else 1
        images[_s(i)] = words.multiply(g, words.letter(_s(i), e),
                                       words.invert(g))
    return images


def hom_relator_trivial(relator: Word, square: int) -> bool:
    """Whether a relator of B_n maps to the identity under the images of
    `_hom_assignment`.  Squaring the image of s_j changes the exponent sum
    of a relator exactly when it is a braid relation on s_j, and those are
    the only relators that fail."""
    return sum(e * (2 if g == _s(square) else 1) for g, e in relator.runs) == 0


def _hom_braid(n: int, conj_len: int, cases: int) -> Query:
    """`cases` assignments, half of them homomorphisms."""
    def make(rng):
        squares = [0] * (cases // 2) + [rng.randrange(1, n)
                                        for _ in range(cases - cases // 2)]
        return [(j, _hom_assignment(rng, n, conj_len, j)) for j in squares]

    def solve(cases):
        model = models.GarsideBraidGroup(n)
        p = presentations.artin_braid(n)
        return [hom.check_hom(p, model, {g: model.from_word(w)
                                         for g, w in images.items()})
                for _square, images in cases]

    def check(cases, reports):
        ok = all(c.trivial == hom_relator_trivial(c.relator, square)
                 for (square, _images), report in zip(cases, reports)
                 for c in report.checks)
        return ok, {"n": n, "conjugator_letters": conj_len}
    return Query(make, solve, check)


def _subgroup(k: int, length: int, members: int) -> Query:
    def make(rng):
        basis = even_basis(rng, k, length)
        exprs = [basis_product(rng, k, 6) for _ in range(members)]
        member_words = [words.substitute(e, _z_images(basis)) for e in exprs]
        others = [non_member(rng, w) for w in member_words]
        return basis, exprs, member_words, others

    def solve(inp):
        basis, _exprs, member_words, others = inp
        graph = freesub.fold(basis)
        found = [freesub.contains(graph, w) for w in member_words + others]
        return graph, found, [freesub.express(graph, basis, w)
                              for w in member_words]

    def check(inp, out):
        basis, exprs, member_words, others = inp
        graph, found, got = out
        ok = found == [True] * len(member_words) + [False] * len(others)
        ok &= got == exprs
        ok &= all(words.substitute(e, _z_images(basis)) == w
                  for e, w in zip(got, member_words))
        return ok, {"k": k, "letters": length, "graph_edges": len(graph.edges),
                    "member_share": len(member_words) / (len(member_words)
                                                         + len(others))}
    return Query(make, solve, check)


# ---------------------------------------------------------------------------
# command-line queries, run as `python -m braidkit.cli` with src on PYTHONPATH

class Cli:
    """Runs the braidkit command line in a fresh interpreter per query."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, args, flags=()):
        return subprocess.run([sys.executable, *flags, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=QUERY_TIMEOUT_S)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path


def _statuses(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] in ("PASS", "FAIL"):
            out[parts[0]] = parts[1]
    return out


def selected_ids(pattern: str) -> list:
    return [cid for cid in VERIFY_STATUS
            if pattern == "all" or fnmatch(cid, pattern)]


def verify_ok(statuses: dict, selected) -> bool:
    """Every frozen id that the filter selects has its frozen status."""
    want = {cid: VERIFY_STATUS[cid] for cid in selected}
    return all(statuses.get(cid) == st for cid, st in want.items())


def _import_query(cli: Cli) -> Query:
    def solve(_):
        return cli.run(["-c", "import braidkit.cli"])

    def check(_, proc):
        return proc.returncode == 0, {}
    return Query(no_input, solve, check, cli=True)


def _verify_query(cli: Cli, pattern: str) -> Query:
    selected = selected_ids(pattern)
    args = ["-m", "braidkit.cli", "verify"]
    if pattern != "all":
        args += ["--filter", pattern]
    expect_rc = 1 if any(VERIFY_STATUS[c] == "FAIL" for c in selected) else 0

    def check(_, proc):
        st = _statuses(proc.stdout)
        return proc.returncode == expect_rc and verify_ok(st, selected), {
            "checks_reported": len(st)}
    return Query(no_input, lambda _: cli.run(args), check, cli=True)


def _cli_query(cli: Cli, kinds, size: dict) -> Query:
    """One small command per query, the kind chosen round-robin."""
    counter = itertools.count()

    def make(rng):
        kind = kinds[next(counter) % len(kinds)]
        tag = "%s-%d" % (kind, rng.randrange(1 << 30))
        if kind == "braid-eq":
            n, length = size["cli_braid"]
            equal = rng.random() < 0.5
            w1, w2 = braid_pair(rng, n, length, equal)
            args = ["braid-eq", "--n", str(n), str(w1), str(w2)]
            return kind, args, (0 if equal else 1,
                                "equal:" if equal else "different:")
        if kind == "member":
            k, length = size["cli_basis"]
            basis = even_basis(rng, k, length)
            w = words.substitute(basis_product(rng, k, 4), _z_images(basis))
            member = rng.random() < 0.5
            if not member:
                w = non_member(rng, w)
            path = cli.write(tag + ".basis", "".join("%s\n" % b for b in basis))
            args = ["subgroup", "member", "--basis", path, "--word", str(w)]
            return kind, args, (0, "member") if member else (1, "not a member")
        if kind == "ab":
            n = rng.randrange(3, 9)
            p = reorder(presentations.sphere_braid(n), relator_plan(
                rng, len(presentations.sphere_braid(n).relators)))
            path = cli.write(tag + ".pres", presentations.serialize(p))
            return kind, ["ab", "--in", path], (0, "Z/%d" % (2 * (n - 1)))
        if kind == "hom-check":
            n = 4
            square = rng.choice((0, rng.randrange(1, n)))
            images = _hom_assignment(rng, n, 2, square)
            pres = cli.write(tag + ".pres", presentations.serialize(
                presentations.artin_braid(n)))
            assign = cli.write(tag + ".assign", "".join(
                "%s = %s\n" % (g, w) for g, w in images.items()))
            args = ["hom-check", "--in", pres, "--target", "braid:%d" % n,
                    "--assign", assign, "--json"]
            return kind, args, square
        family = rng.choice(sorted(LCS_RANKS))
        return kind, ["lcs-ranks", "--family", family, "--max-i", "8",
                      "--json"], family

    def solve(inp):
        _kind, args, _expect = inp
        return cli.run(["-m", "braidkit.cli", *args])

    def check(inp, proc):
        kind, _args, expect = inp
        out = proc.stdout
        if kind == "hom-check":
            rows = [json.loads(line) for line in out.splitlines()]
            pres = presentations.artin_braid(4)
            ok = (len(rows) == len(pres.relators)
                  and proc.returncode == (0 if expect == 0 else 1)
                  and all(row["trivial"] == hom_relator_trivial(r, expect)
                          for r, row in zip(pres.relators, rows)))
            return ok, {"kind": kind}
        if kind == "lcs-ranks":
            ranks = [json.loads(line)["rank"] for line in out.splitlines()]
            return proc.returncode == 0 and ranks == LCS_RANKS[expect], {
                "kind": kind}
        rc, text = expect
        answer = out.split(":")[0] + ":" if kind == "braid-eq" else out.strip()
        return proc.returncode == rc and answer == text, {"kind": kind}
    return Query(make, solve, check, cli=True)


# ---------------------------------------------------------------------------
# in-process verify, for the traced run

def verify_in_process(pattern: str) -> Query:
    selected = selected_ids(pattern)

    def check(_, checks):
        return verify_ok({c.id: c.status for c in checks}, selected), {}
    return Query(no_input, lambda _: verify.run_verify(pattern), check)


# ---------------------------------------------------------------------------

def build_queries(workload: str, size_name: str, cli: Cli) -> dict:
    """Query classes of a workload, keyed by end-to-end metric name, with
    how many queries of each class one round runs."""
    spec = WORKLOADS[workload]
    focus = spec["focus"]
    sizes = {g: SIZES[size_name if g == focus or size_name == "smoke"
                      else "probe"] for g in GROUPS}
    ks, ws = sizes["kernel"], sizes["words"]
    queries = {
        "import_s": _import_query(cli),
        "verify_full_s": _verify_query(cli, "all"),
        "verify_filtered_s": _verify_query(cli, VERIFY_FILTER),
        "cli_query_s": _cli_query(cli, spec["cli_kinds"], sizes["cli"]),
        "kernel_ab_s": _kernel_ab(ks["kernel_n"]),
        "kernel_raw_ab_s": _kernel_raw_ab(ks["raw_n"]),
        "g2g3_s": _g2g3(ks["g2g3_n"]),
        "coinvariants_s": _coinvariants(ks["window"]),
        "braid_eq_s": _braid_eq(*ws["braid"]),
        "hom_braid_s": _hom_braid(*ws["hom"]),
        "subgroup_s": _subgroup(*ws["subgroup"]),
    }
    reps = {}
    for group, names in GROUPS.items():
        for name in names:
            # probes take milliseconds; more of them steady their median
            reps[name] = 4 if group not in ("cli", focus) else 2
    if focus == "cli":
        reps["cli_query_s"] = len(spec["cli_kinds"])
    else:
        # a full verify takes over a second; once per round is enough
        reps["verify_full_s"] = reps["verify_filtered_s"] = 1
    return {name: (q, reps[name]) for name, q in queries.items()}


def prepare(workload: str, seed: int, size_name: str, cli: Cli) -> dict:
    """Set-up shared by every run: build the queries and the first input of
    each class, which builds the presentations and writes the CLI files."""
    queries = build_queries(workload, size_name, cli)
    for name, (q, _reps) in queries.items():
        q.make(random.Random("%s:%d:%s:setup" % (workload, seed, name)))
    return queries
