"""Command-line interface.

Thin adapters over the library: presentation builders, abelianization,
subgroup rewriting, Smith forms, braid equality, subgroup expression,
homomorphism checks, rank formulas, and the named verification suite.
Inputs are read by the library's parsers (hom-check's by `models.target`
and `hom.parse_assignment`), whose errors map to exit codes:
0 success, 1 check failure, 2 usage error, 3 input parse error.  Each
command imports the layers it runs in its own body, so a start-up loads
only those.

Each command is a plain function and a row of the table `COMMANDS` that
lists its options and positional arguments, each an `_Option`.  `main`
parses a command line against that table, builds no parser object, and
writes usage errors and `--help` in the layout of the click library, whose
texts the CLI snapshot pins.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager

from .words import Gen, parse_gen, parse_word, word_to_text


class UsageError(Exception):
    """A command line, or an input read with it, that a command refuses:
    printed under the command's usage line, exit 2."""


class _BadOptionUsage(UsageError):
    """An option with a missing or unwanted value: printed with no usage
    line, as click printed it."""


@contextmanager
def _exit_on(errors, prefix: str, code: int):
    """On one of `errors`, print "PREFIX: message" to stderr and exit."""
    try:
        yield
    except errors as exc:
        print("%s: %s" % (prefix, exc), file=sys.stderr)
        sys.exit(code)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError("cannot read %r: %s" % (path, exc.strerror or exc))


def _load_presentation(path: str):
    from .presentations import ParseError, parse_presentation
    with _exit_on(ParseError, "parse error", 3):
        return parse_presentation(_read_text(path))


def _parse_weights(p, spec: str) -> dict:
    """Weights from PATTERN=INT entries split at commas outside brackets,
    later entries winning.  An entry naming an indexed generator (A[1,3])
    sets that generator only; any other pattern is a glob against each
    generator and its name."""
    from fnmatch import fnmatch
    weights = {}
    for part in re.split(r",(?![^\[]*\])", spec):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError("weight entry %r is not PATTERN=INT" % part)
        pattern, value = part.rsplit("=", 1)
        pattern = pattern.strip()
        try:
            named = parse_gen(pattern)
        except ValueError:
            named = None
        if named is not None and named.indices:
            matched = [g for g in p.generators if g == named]
        else:
            matched = [g for g in p.generators
                       if fnmatch(str(g), pattern) or fnmatch(g.name, pattern)]
        if not matched:
            raise UsageError("weight entry %r matches no generator" % part)
        try:
            weight = int(value)
        except ValueError:
            raise UsageError("weight entry %r is not PATTERN=INT" % part)
        for g in matched:
            weights[g] = weight
    return weights


def _parse_gen(text: str) -> Gen:
    try:
        return parse_gen(text)
    except ValueError as exc:
        raise UsageError(str(exc))


# family -> (its builder in `presentations`, the options it reads, in order)
_FAMILIES = {
    "artin": ("artin_braid", ("n",)),
    "sphere": ("sphere_braid", ("n",)),
    "punctured": ("punctured_sphere", ("m", "n")),
    "kent-peifer": ("kent_peifer", ("m",)),
    "affine-a": ("affine_A", ("m",)),
    "affine-c": ("affine_C", ("m",)),
    "b22": ("b22_two_generator", ()),
    "g2b4": ("gamma2_b4", ()),
    "g2b5": ("gamma2_b5", ()),
    "g2b6": ("gamma2_b6plus", ("n",)),
    "full": ("fullpres", ("n",)),
}


def present_cmd(family, n, m):
    """Print a built-in presentation in the presentation file format."""
    from . import presentations
    builder, names = _FAMILIES[family]
    values = {"n": n, "m": m}
    for name, value in values.items():
        if name in names and value is None:
            raise UsageError("--family %s needs --%s" % (family, name))
        if name not in names and value is not None:
            raise UsageError("--family %s does not read --%s" % (family, name))
    try:
        p = getattr(presentations, builder)(*(values[name] for name in names))
    except ValueError as exc:
        raise UsageError(str(exc))
    sys.stdout.write(presentations.serialize(p))


def ab_cmd(path):
    """Abelian invariants of a presented group."""
    from . import series
    p = _load_presentation(path)
    print(series.abelianization(p))


def rs_cmd(path, modulus, weights_spec, transversal, window, tietze):
    """Reidemeister-Schreier presentation of a weight-map kernel."""
    from .presentations import IndexedPresentation, serialize
    from .reidschreier import rs_finite_cyclic, rs_z_window, tietze_eliminate
    p = _load_presentation(path)
    t = _parse_gen(transversal)
    weights = _parse_weights(p, weights_spec)
    with _exit_on(ValueError, "error", 1):
        if modulus == 0:
            out = rs_z_window(p, t, weights, window)
        else:
            out = rs_finite_cyclic(p, modulus, t, weights)
        if tietze:
            out = tietze_eliminate(out)
        pres = out.presentation
        if isinstance(pres, IndexedPresentation):
            pres = pres.instantiate(window)
    sys.stdout.write(serialize(pres))
    print("# dict:")
    for g in pres.generators:
        if g in out.dictionary:
            print("#   %s = %s" % (g, word_to_text(out.dictionary[g])))


def g2g3_cmd(path, transversal):
    """Second lower central quotient for cyclic abelianization."""
    from . import series
    p = _load_presentation(path)
    with _exit_on(ValueError, "error", 1):
        print(series.gamma2_mod_gamma3(p, _parse_gen(transversal)))


def snf_cmd(path, transforms):
    """Smith normal form of an integer matrix."""
    from .intlin import parse_matrix, serialize_matrix, smith_normal_form
    with _exit_on(ValueError, "parse error", 3):
        m = parse_matrix(_read_text(path))
    res = smith_normal_form(m)
    print(serialize_matrix(res.d))
    if transforms:
        print("# P")
        print(serialize_matrix(res.p))
        print("# Q")
        print(serialize_matrix(res.q))


def braid_eq_cmd(n, word1, word2):
    """Decide equality of two braid words via greedy normal forms."""
    from .garside import normal_form
    with _exit_on(ValueError, "parse error", 3):
        nf1 = normal_form(parse_word(word1), n)
        nf2 = normal_form(parse_word(word2), n)
    if nf1 == nf2:
        print("equal: %s" % nf1)
    else:
        print("different: %s vs %s" % (nf1, nf2))
        sys.exit(1)


def _load_basis(path: str):
    lines = (line.strip() for line in _read_text(path).splitlines())
    return [parse_word(line) for line in lines
            if line and not line.startswith("#")]


def subgroup_express_cmd(basis_path, word_text):
    """Rewrite a member word in the given subgroup basis."""
    from .freesub import express, fold
    with _exit_on(ValueError, "parse error", 3):
        basis = _load_basis(basis_path)
        w = parse_word(word_text)
    graph = fold(basis)
    with _exit_on(ValueError, "error", 1):
        print(word_to_text(express(graph, basis, w)))


def subgroup_member_cmd(basis_path, word_text):
    """Membership of a word in the subgroup generated by the basis words."""
    from .freesub import contains, fold
    with _exit_on(ValueError, "parse error", 3):
        basis = _load_basis(basis_path)
        w = parse_word(word_text)
    if contains(fold(basis), w):
        print("member")
    else:
        print("not a member")
        sys.exit(1)


def hom_check_cmd(path, target, assign_path, relator, as_json):
    """Evaluate every relator under a generator assignment."""
    import json

    from . import hom, models
    p = _load_presentation(path)
    try:
        model = models.target(target)
    except ValueError as exc:
        raise UsageError(str(exc))
    with _exit_on(ValueError, "parse error", 3):
        assignment = hom.parse_assignment(_read_text(assign_path), model)
    with _exit_on(ValueError, "error", 1):
        report = hom.check_hom(p, model, assignment, relator)
    for c in report.checks:
        if as_json:
            print(json.dumps({"relator": word_to_text(c.relator),
                              "image": c.image, "trivial": c.trivial}))
        else:
            print("%s  %s -> %s" % ("ok " if c.trivial else "FAIL",
                                    word_to_text(c.relator), c.image))
    if not report.all_trivial:
        sys.exit(1)


def lcs_ranks_cmd(family, max_i, as_json):
    """Closed-form lower central series ranks."""
    import json

    from . import series
    fn = series.lcs_rank_z2_free if family == "z2-free" else series.lcs_rank_torus
    for i in range(2, max_i + 1):
        rank = fn(i)
        print(json.dumps({"i": i, "rank": rank}) if as_json
              else "R_%d = %d" % (i, rank))


def verify_cmd(filter_glob, as_json):
    """Run the named verification suite."""
    import json

    from .verify import run_verify
    checks = run_verify(filter_glob)
    if not checks:
        raise UsageError("--filter %r matches no check" % filter_glob)
    failed = 0
    for c in checks:
        if as_json:
            print(json.dumps({"id": c.id, "status": c.status,
                              "expected": c.expected, "got": c.got,
                              "paper_ref": ""}))
        else:
            print("%-34s %s" % (c.id, c.status))
            if c.status == "FAIL":
                print("    expected: %s" % c.expected)
                print("    got:      %s" % c.got)
        if c.status == "FAIL":
            failed += 1
    if not as_json:
        print("%d/%d passed" % (len(checks) - failed, len(checks)))
    if failed:
        sys.exit(1)


# ---------------------------------------------------------------------------
# the command table and its parser

class _Option:
    """One option of a command, or, named in capitals like WORD1, one
    positional argument.  It fills the command function's parameter `dest`
    (by default its name without dashes).  Its text converts by `type` (str
    or int), to an integer at least `min`, or to one of `choices`; an
    `is_flag` option takes no text and is True when given.  `only_with=(NAME,
    VALUE)` refuses the option typed unless option NAME has VALUE."""

    def __init__(self, name, dest=None, *, type=str, min=None, choices=None,
                 is_flag=False, default=None, required=False, help="",
                 only_with=None):
        self.name = name
        self.positional = not name.startswith("-")
        self.dest = dest or name.lstrip("-").replace("-", "_").lower()
        self.type = int if min is not None else type
        self.min = min
        self.choices = choices
        self.is_flag = is_flag
        self.default = False if is_flag else default
        self.required = required or self.positional
        self.help = help
        self.only_with = only_with

    def convert(self, text):
        if self.is_flag:
            return True
        if self.choices is not None and text not in self.choices:
            self._invalid("%r is not one of %s." % (
                text, ", ".join(repr(c) for c in self.choices)))
        if self.type is int:
            try:
                value = int(text)
            except ValueError:
                self._invalid("%r is not a valid integer%s." % (
                    text, " range" if self.min is not None else ""))
            if self.min is not None and value < self.min:
                self._invalid("%d is not in the range x>=%d." % (value, self.min))
            return value
        return text

    def _invalid(self, message: str):
        raise UsageError("Invalid value for %r: %s" % (self.name, message))

    def help_row(self):
        """(the option and its metavar, its help) for `--help`."""
        if self.is_flag:
            term = self.name
        elif self.choices is not None:
            term = "%s [%s]" % (self.name, "|".join(self.choices))
        else:
            term = "%s %s" % (self.name, "TEXT" if self.type is str else
                              "INTEGER RANGE" if self.min is not None else "INTEGER")
        extra = []
        if self.default is not None and not self.is_flag:
            extra.append("default: %s" % self.default)
        if self.min is not None:
            extra.append("x>=%d" % self.min)
        if self.required:
            extra.append("required")
        if not extra:
            return term, self.help
        extra = "[%s]" % "; ".join(extra)
        return term, ("%s  %s" % (self.help, extra) if self.help else extra)


_HELP = _Option("--help", is_flag=True, help="Show this message and exit.")

# command name -> (its function, its options and arguments); a group of
# commands -> (its help, its own table)
COMMANDS = {
    "present": (present_cmd, (
        _Option("--family", required=True, choices=tuple(_FAMILIES)),
        _Option("--n", type=int, help="strand count / index"),
        _Option("--m", type=int, help="strand count for punctured/affine families"))),
    "ab": (ab_cmd, (
        _Option("--in", "path", required=True, help="presentation file, - for stdin"),)),
    "rs": (rs_cmd, (
        _Option("--in", "path", required=True),
        _Option("--mod", "modulus", min=0, required=True,
                help="cyclic order; 0 for the windowed Z case"),
        _Option("--weights", "weights_spec", default="*=1"),
        _Option("--transversal", required=True, help="weight-1 generator, e.g. s[1]"),
        _Option("--window", min=1, default=2, only_with=("--mod", 0)),
        _Option("--tietze", is_flag=True, help="run the limited eliminator"))),
    "g2g3": (g2g3_cmd, (
        _Option("--in", "path", required=True),
        _Option("--transversal", required=True))),
    "snf": (snf_cmd, (
        _Option("--in", "path", required=True, help="matrix file, - for stdin"),
        _Option("--transforms", is_flag=True, help="also print P and Q"))),
    "braid-eq": (braid_eq_cmd, (
        _Option("--n", min=2, required=True, help="strand count"),
        _Option("WORD1"),
        _Option("WORD2"))),
    "subgroup": ("Finitely generated subgroups of free groups.", {
        "express": (subgroup_express_cmd, (
            _Option("--basis", "basis_path", required=True,
                    help="file with one basis word per line"),
            _Option("--word", "word_text", required=True))),
        "member": (subgroup_member_cmd, (
            _Option("--basis", "basis_path", required=True),
            _Option("--word", "word_text", required=True))),
    }),
    "hom-check": (hom_check_cmd, (
        _Option("--in", "path", required=True),
        _Option("--target", required=True,  # the list is models.TARGETS
                help="one of: z2-z6, q8-f2, braid:N, braid:N-x-z"),
        _Option("--assign", "assign_path", required=True,
                help="file of lines GEN = IMAGE"),
        _Option("--relator", min=0, help="evaluate only this relator (0-based index)"),
        _Option("--json", "as_json", is_flag=True))),
    "lcs-ranks": (lcs_ranks_cmd, (
        _Option("--family", required=True, choices=("z2-free", "torus")),
        _Option("--max-i", min=2, default=8),
        _Option("--json", "as_json", is_flag=True))),
    "verify": (verify_cmd, (
        _Option("--filter", "filter_glob", default="all"),
        _Option("--json", "as_json", is_flag=True))),
}

_MAIN = ("Braid and surface braid group presentation workbench.", COMMANDS)


def _is_group(entry) -> bool:
    return isinstance(entry[1], dict)


def _split(args, options, group: bool):
    """Read `args` against `options` and --help: (the text of each option
    typed, keyed by option in the order first typed, the last text winning;
    the other words).  A group stops at its first word, which names a
    command."""
    by_name = {o.name: o for o in options if not o.positional}
    by_name[_HELP.name] = _HELP
    typed, words = {}, []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            words.extend(args[i:])
            break
        if arg[:1] != "-" or arg == "-":
            if group:
                words.extend(args[i - 1:])
                break
            words.append(arg)
            continue
        name, eq, text = arg.partition("=")
        option = by_name.get(name)
        if option is None:
            if arg[:2] != "--":
                raise UsageError("No such option '-%s'." % arg[1])
            raise UsageError(_no_such_option(name, by_name))
        if option.is_flag:
            if eq:
                raise _BadOptionUsage("Option %r does not take a value." % name)
            text = True
        elif not eq:
            if i == len(args):
                raise _BadOptionUsage("Option %r requires an argument." % name)
            text = args[i]
            i += 1
        typed[option] = text
    return typed, words


def _no_such_option(name: str, names) -> str:
    from difflib import get_close_matches
    close = sorted(get_close_matches(name, names))
    if len(close) > 1:
        return "No such option %r. (Did you mean one of: %s?)" % (
            name, ", ".join(repr(c) for c in close))
    return "No such option %r.%s" % (name, " Did you mean %r?" % close[0] if close else "")


def _values(options, typed, words) -> dict:
    """The command function's keyword arguments.  The options typed are
    checked in the order typed, then the positional arguments, then the
    other options; the first that is missing or does not convert is the
    error."""
    positional = [o for o in options if o.positional]
    given = dict(typed)
    given.update(zip(positional, words))
    values = {}
    untyped = [o for o in options if o not in typed and not o.positional]
    for o in [*typed, *positional, *untyped]:
        if o in given:
            values[o.dest] = o.convert(given[o])
        elif o.required:
            raise UsageError("Missing %s %r." % (
                "argument" if o.positional else "option", o.name))
        else:
            values[o.dest] = o.default
    extra = words[len(positional):]
    if extra:
        raise UsageError("Got unexpected extra argument%s (%s)" % (
            "s" if len(extra) > 1 else "", " ".join(extra)))
    for o in typed:
        if o.only_with:
            name, wanted = o.only_with
            other, = (p for p in options if p.name == name)
            if values[other.dest] != wanted:
                raise UsageError("%s is read only with %s %s" % (o.name, name, wanted))
    return values


def _usage(path: str, entry) -> str:
    if _is_group(entry):
        return "Usage: %s [OPTIONS] COMMAND [ARGS]..." % path
    return "Usage: %s [OPTIONS]%s" % (path, "".join(
        " " + o.name for o in entry[1] if o.positional))


_WIDTH = 78  # click's layout on an 80-column terminal


def _help(path: str, entry) -> str:
    import textwrap

    def table(rows):
        first = min(max(len(term) for term, _ in rows), 30) + 2
        lines = []
        for term, text in rows:
            lines.append("  " + term)
            if text:
                lines[-1] += (" " * (first - len(term)) if len(term) <= first - 2
                              else "\n" + " " * (first + 2))
                lines[-1] += ("\n" + " " * (first + 2)).join(textwrap.wrap(
                    text, max(_WIDTH - first - 2, 10), replace_whitespace=False))
        return "\n".join(lines)

    doc, options = entry
    group = _is_group(entry)
    if not group:
        doc = doc.__doc__
    rows = [] if group else [o.help_row() for o in options if not o.positional]
    parts = [_usage(path, entry),
             textwrap.fill(doc, _WIDTH, initial_indent="  ", subsequent_indent="  "),
             "Options:\n" + table(rows + [_HELP.help_row()])]
    if group:
        limit = _WIDTH - 6 - max(len(name) for name in options)
        parts.append("Commands:\n" + table([
            (name, _short_help(sub[0] if _is_group(sub) else sub[0].__doc__, limit))
            for name, sub in sorted(options.items())]))
    return "\n\n".join(parts)


def _short_help(text: str, limit: int) -> str:
    """`text` cut after a word to at most `limit` characters with "...", for
    a group's list of commands."""
    if len(text) <= limit:
        return text
    words = text.split()
    while len(" ".join(words)) + 3 > limit:
        words.pop()
    return " ".join(words) + "..."


def _program_name() -> str:
    """How the command was run: `python -m braidkit.cli` under -m, otherwise
    the script's file name."""
    import os
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    return "python -m %s" % (package if name == "__main__" else package + "." + name)


def main(argv=None, prog=None):
    """Run the command line `argv` (by default `sys.argv[1:]`) and exit with
    the command's code; usage lines name the program `prog` (by default as
    it was run)."""
    args = list(sys.argv[1:] if argv is None else argv)
    path = _program_name() if prog is None else prog
    entry = _MAIN
    try:
        while _is_group(entry):
            if not args:
                print(_help(path, entry), file=sys.stderr)
                sys.exit(2)
            typed, args = _split(args, (), group=True)
            if _HELP in typed:
                print(_help(path, entry))
                sys.exit(0)
            if not args:
                raise UsageError("Missing command.")
            if args[0] not in entry[1]:
                raise UsageError("No such command %r." % args[0])
            path += " " + args[0]
            entry, args = entry[1][args[0]], args[1:]
        function, options = entry
        typed, words = _split(args, options, group=False)
        if _HELP in typed:
            print(_help(path, entry))
            sys.exit(0)
        function(**_values(options, typed, words))
    except UsageError as exc:
        if not isinstance(exc, _BadOptionUsage):
            print("%s\nTry '%s --help' for help.\n" % (_usage(path, entry), path),
                  file=sys.stderr)
        print("Error: %s" % exc, file=sys.stderr)
        sys.exit(2)
    except (KeyboardInterrupt, EOFError):
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # the reader of stdout left, as `| head` does: exit 1 quietly, with
        # stdout on /dev/null so that the interpreter's last flush succeeds
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
