"""Print the output of a fixed list of braidkit command-line runs.

Usage:

    python tests/cli_snapshot.py SRC > snapshot.txt

SRC is the `src` directory of the tree to snapshot.  Every run goes through
the in-process runner of `tests/cli_runner.py` in a scratch directory; for
each one the script prints its arguments, exit code and output (stderr
included).  Run it on two trees and diff the two outputs to see exactly
which outputs a change moved.  This is a script, not a test: pytest does not
collect it, but `tests/test_cli_snapshot.py` pins the size and sha256 of its
output.
"""

import os
import sys
import tempfile

from cli_runner import invoke


def _sizes(option, values):
    return [(option, str(v)) for v in values]


# `present` runs: (family, its option lists), the rejected sizes included
FAMILIES = (
    ("artin", _sizes("--n", range(1, 8))),
    ("sphere", _sizes("--n", range(1, 9))),
    ("punctured", [("--m", str(m), "--n", str(n))
                   for m in range(1, 7) for n in range(0, 4)]),
    ("kent-peifer", _sizes("--m", range(2, 7))),
    ("affine-a", _sizes("--m", range(2, 7))),
    ("affine-c", _sizes("--m", range(1, 7))),
    ("b22", [()]),
    ("g2b4", [()]),
    ("g2b5", [()]),
    ("g2b6", _sizes("--n", range(5, 13))),
    ("full", _sizes("--n", range(3, 13))),
)

# (presentation file, transversal) for `rs --mod 0`
Z_KERNELS = (
    [("artin-n%d" % n, "s[1]") for n in (3, 4, 5)]
    + [("kent-peifer-m%d" % m, "t") for m in (3, 4, 5)]
    + [("affine-a-m%d" % m, "s[0]") for m in (3, 4, 5)]
    + [("affine-c-m%d" % m, "s[1]") for m in range(2, 7)]
    + [("b22", "s")])

MATRICES = {
    "m-2x3": "2 3\n2 4 6\n-1 3 5\n",
    "m-zero": "2 2\n0 0\n0 0\n",
    "m-3x3": "3 3\n2 4 4\n-6 6 12\n10 -4 -16\n",
    "m-unitless": "4 4\n2 4 0 6\n4 -2 6 0\n0 6 -4 2\n6 0 2 -4\n",
    "m-empty-row": "1 3\n0 0 0\n",
    "m-0x3": "0 3\n",
}

FILES = {
    "q8.txt": "group P\ngens: a b\nrel: a^4\nrel: a b a^-1 b^-1\nrel: b^2 a\n",
    "q8-assign.txt": "a = x;a\nb = 1;b^-1\n",
    "z2z6-good.txt": "s[1] = (0,0);1\ns[2] = (1,0);1\ns[3] = (0,0);1\n",
    "z2z6-bad.txt": "s[1] = (0,0);1\ns[2] = (0,1);0\ns[3] = (0,0);1\n",
    "z2z6-extra.txt": "s[1] = (0,0);1\ns[2] = (1,0);1\ns[3] = (0,0);1\ns[9] = (5,5);3\n",
    "braid-assign.txt": "s[1] = s[1]\ns[2] = s[2]\n",
    "braid-bad.txt": "s[1] = s[1]^2\ns[2] = s[2]\n",
    "braid-z-assign.txt": "s[1] = s[1];1\ns[2] = s[2];1\n",
    "braid-z-bad.txt": "s[1] = s[1]^2;1\ns[2] = s[2];0\n",
    "basis.txt": "a^2\nb^2\na b a b\nb a^2 b^-1\na b^2 a^-1\n",
    "basis-dependent.txt": "a\nb\na b\n",
    "z6.txt": "group Z6\ngens: a b\nrel: a^6\nrel: b a^-4\n",
    "f2.txt": "group F2\ngens: a b\nrel: a b a^-1 b^-1\n",
    "groupies.txt": "groupies G\ngens: a\nrel: a^2\n",
}

# (presentation file, target, assignment) of hom-check runs whose images or
# lines do not parse; each assignment is also written to a file of its own
MALFORMED_IMAGES = (
    [("sphere-n4", "z2-z6", a) for a in (
        "s[1] = (0,0,7);1\n", "s[1] = (0);1\n", "s[1] = (0,0)\n",
        "s[1] = (0,0);1;1\n", "s[1] = (1, x);0\n")]
    + [("f2.txt", "q8-f2", a) for a in ("a = zz;a\n", "a = x\n")]
    + [("artin-n3", "braid:3-x-z", a) for a in (
        "s[1] = s[1]\ns[2] = s[2]\n", "s[1] = s[1];0;1\ns[2] = s[2];0\n",
        "s[1] = s[1];x\ns[2] = s[2];0\n", "s[1] = s[1];\ns[2] = s[2];0\n")]
    + [("f2.txt", "q8-f2", "# GEN = IMAGE lines\na x;a\n"),
       ("f2.txt", "q8-f2", "a^2 = x;a\n"),
       ("artin-n3", "braid:3", "s[1] = s[1]\ns[2] = s[2]\ns[1] = s[2]\n")])
FILES.update(("malformed-%d.txt" % i, assign)
             for i, (_pres, _target, assign) in enumerate(MALFORMED_IMAGES))


def _rs_runs():
    """`rs` runs: the sphere kernels and the windowed Z kernels."""
    runs = []
    for n in range(3, 7):
        for tietze in ([], ["--tietze"]):
            runs.append(["rs", "--in", "sphere-n%d" % n, "--mod", str(2 * (n - 1)),
                         "--transversal", "s[1]"] + tietze)
    for path, t in Z_KERNELS:
        for window in ("2", "3"):
            for tietze in ([], ["--tietze"]):
                runs.append(["rs", "--in", path, "--mod", "0", "--window", window,
                             "--transversal", t] + tietze)
    return runs


def invocations():
    """Yield argument lists in output order.  Each `present` or `rs` run
    that succeeds leaves its output, a presentation, in the file
    _saved(ARGS), such as punctured-m3-n2, for later runs to read."""
    for family, sizes in FAMILIES:
        for opts in sizes:
            yield ["present", "--family", family, *opts]
    for family, sizes in FAMILIES:
        for opts in sizes:
            if os.path.exists(_name(family, *opts)):
                yield ["ab", "--in", _name(family, *opts)]
    yield ["ab", "--in", "groupies.txt"]
    yield from _rs_runs()
    # the kernels' abelianizations; the `# dict:` lines parse as comments
    for args in _rs_runs():
        if os.path.exists(_saved(args)):
            yield ["ab", "--in", _saved(args)]
    for n in range(3, 9):
        yield ["g2g3", "--in", "sphere-n%d" % n, "--transversal", "s[1]"]
    yield ["g2g3", "--in", "g2b4", "--transversal", "g[1]"]
    yield ["g2g3", "--in", "g2b5", "--transversal", "u[1]"]
    yield ["g2g3", "--in", "artin-n3", "--transversal", "s[1]"]
    yield ["g2g3", "--in", "z6.txt", "--transversal", "a"]
    yield ["g2g3", "--in", "z6.txt", "--transversal", "b"]
    yield ["g2g3", "--in", "z6.txt", "--transversal", "x"]
    for path in MATRICES:
        yield ["snf", "--in", path]
        yield ["snf", "--in", path, "--transforms"]
    yield ["braid-eq", "--n", "3", "s[1] s[2] s[1]", "s[2] s[1] s[2]"]
    yield ["braid-eq", "--n", "3", "s[1]", "s[2]"]
    yield ["braid-eq", "--n", "4", "s[1] s[3] s[2]^-1", "s[3] s[1] s[2]^-1"]
    yield ["braid-eq", "--n", "3", "s[1]", "s[5]"]
    yield ["subgroup", "member", "--basis", "basis.txt", "--word", "a^2 b^2"]
    yield ["subgroup", "member", "--basis", "basis.txt", "--word", "a"]
    yield ["subgroup", "express", "--basis", "basis.txt", "--word", "a^2 b^2"]
    yield ["subgroup", "express", "--basis", "basis.txt", "--word", "a"]
    yield ["subgroup", "express", "--basis", "basis-dependent.txt", "--word", "a b"]
    for as_json in ([], ["--json"]):
        for pres, target, assign in (
                ("sphere-n4", "z2-z6", "z2z6-good.txt"),
                ("sphere-n4", "z2-z6", "z2z6-bad.txt"),
                ("sphere-n4", "z2-z6", "z2z6-extra.txt"),
                ("q8.txt", "q8-f2", "q8-assign.txt"),
                ("artin-n3", "braid:3", "braid-assign.txt"),
                ("artin-n3", "braid:3", "braid-bad.txt"),
                ("artin-n3", "braid:3-x-z", "braid-z-assign.txt"),
                ("artin-n3", "braid:3-x-z", "braid-z-bad.txt")):
            yield ["hom-check", "--in", pres, "--target", target,
                   "--assign", assign] + as_json
    for i, (pres, target, _assign) in enumerate(MALFORMED_IMAGES):
        yield ["hom-check", "--in", pres, "--target", target,
               "--assign", "malformed-%d.txt" % i]
    for family in ("z2-free", "torus"):
        for as_json in ([], ["--json"]):
            yield ["lcs-ranks", "--family", family, "--max-i", "8"] + as_json
    yield ["verify"]
    yield ["verify", "--json"]


def _name(family, *opts):
    """The file that `present --family FAMILY OPTS...` writes."""
    return family + "".join("-%s%s" % (o[2:], v)
                            for o, v in zip(opts[::2], opts[1::2]))


def _saved(args):
    """The file a successful run of `args` leaves its output in, or None."""
    if args[0] == "present":
        return _name(*args[2:])
    if args[0] == "rs":
        return "rs" + "".join("-" + a.lstrip("-") for a in args[2:])
    return None


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python tests/cli_snapshot.py SRC")
    sys.path.insert(0, os.path.abspath(argv[1]))
    from braidkit.cli import main as cli

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for path, text in list(FILES.items()) + list(MATRICES.items()):
            with open(path, "w") as fh:
                fh.write(text)
        for args in invocations():
            res = invoke(cli, args)
            if _saved(args) and res.exit_code == 0:
                with open(_saved(args), "w") as fh:
                    fh.write(res.output)
            print("$ braidkit %s" % " ".join(
                "'%s'" % a if " " in a else a for a in args))
            print("exit %d" % res.exit_code)
            sys.stdout.write(res.output)
            if res.exception is not None and not isinstance(res.exception,
                                                            SystemExit):
                print("exception %r" % res.exception)


if __name__ == "__main__":
    main(sys.argv)
