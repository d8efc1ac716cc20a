"""Command-line interface.

Thin adapters over the library: presentation builders, abelianization,
subgroup rewriting, Smith forms, braid equality, subgroup expression,
homomorphism checks, rank formulas, and the named verification suite.
Inputs are read by the library's parsers (hom-check's by `models.target`
and `hom.parse_assignment`), whose errors map to exit codes:
0 success, 1 check failure, 2 usage error, 3 input parse error.  Each
command imports the layers it runs in its own body, so a start-up loads
only those.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from fnmatch import fnmatch

import click
from click.core import ParameterSource

from .words import Gen, parse_gen, parse_word, word_to_text


@contextmanager
def _exit_on(errors, prefix: str, code: int):
    """On one of `errors`, print "PREFIX: message" to stderr and exit."""
    try:
        yield
    except errors as exc:
        click.echo("%s: %s" % (prefix, exc), err=True)
        sys.exit(code)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_presentation(path: str):
    from .presentations import ParseError, parse_presentation
    with _exit_on(ParseError, "parse error", 3):
        return parse_presentation(_read_text(path))


def _parse_weights(p, spec: str) -> dict:
    """Weights from PATTERN=INT entries split at commas outside brackets,
    later entries winning.  An entry naming an indexed generator (A[1,3])
    sets that generator only; any other pattern is a glob against each
    generator and its name."""
    weights = {}
    for part in re.split(r",(?![^\[]*\])", spec):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise click.UsageError("weight entry %r is not PATTERN=INT" % part)
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
            raise click.UsageError("weight entry %r matches no generator" % part)
        try:
            weight = int(value)
        except ValueError:
            raise click.UsageError("weight entry %r is not PATTERN=INT" % part)
        for g in matched:
            weights[g] = weight
    return weights


def _parse_gen(text: str) -> Gen:
    try:
        return parse_gen(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Braid and surface braid group presentation workbench."""


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


@main.command("present")
@click.option("--family", required=True, type=click.Choice(list(_FAMILIES)))
@click.option("--n", type=int, default=None, help="strand count / index")
@click.option("--m", type=int, default=None, help="strand count for punctured/affine families")
def present_cmd(family, n, m):
    """Print a built-in presentation in the presentation file format."""
    from . import presentations
    builder, names = _FAMILIES[family]
    values = {"n": n, "m": m}
    for name, value in values.items():
        if name in names and value is None:
            raise click.UsageError("--family %s needs --%s" % (family, name))
        if name not in names and value is not None:
            raise click.UsageError("--family %s does not read --%s" % (family, name))
    try:
        p = getattr(presentations, builder)(*(values[name] for name in names))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(presentations.serialize(p), nl=False)


@main.command("ab")
@click.option("--in", "path", required=True, help="presentation file, - for stdin")
def ab_cmd(path):
    """Abelian invariants of a presented group."""
    from . import series
    p = _load_presentation(path)
    click.echo(str(series.abelianization(p)))


@main.command("rs")
@click.option("--in", "path", required=True)
@click.option("--mod", "modulus", type=click.IntRange(min=0), required=True,
              help="cyclic order; 0 for the windowed Z case")
@click.option("--weights", "weights_spec", default="*=1", show_default=True)
@click.option("--transversal", "transversal", required=True,
              help="weight-1 generator, e.g. s[1]")
@click.option("--window", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--tietze", is_flag=True, help="run the limited eliminator")
def rs_cmd(path, modulus, weights_spec, transversal, window, tietze):
    """Reidemeister-Schreier presentation of a weight-map kernel."""
    from .presentations import IndexedPresentation, serialize
    from .reidschreier import rs_finite_cyclic, rs_z_window, tietze_eliminate
    if (modulus and click.get_current_context().get_parameter_source("window")
            is ParameterSource.COMMANDLINE):
        raise click.UsageError("--window is read only with --mod 0")
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
    click.echo(serialize(pres), nl=False)
    click.echo("# dict:")
    for g in pres.generators:
        if g in out.dictionary:
            click.echo("#   %s = %s" % (g, word_to_text(out.dictionary[g])))


@main.command("g2g3")
@click.option("--in", "path", required=True)
@click.option("--transversal", required=True)
def g2g3_cmd(path, transversal):
    """Second lower central quotient for cyclic abelianization."""
    from . import series
    p = _load_presentation(path)
    with _exit_on(ValueError, "error", 1):
        click.echo(str(series.gamma2_mod_gamma3(p, _parse_gen(transversal))))


@main.command("snf")
@click.option("--in", "path", required=True, help="matrix file, - for stdin")
@click.option("--transforms", is_flag=True, help="also print P and Q")
def snf_cmd(path, transforms):
    """Smith normal form of an integer matrix."""
    from .intlin import parse_matrix, serialize_matrix, smith_normal_form
    with _exit_on(ValueError, "parse error", 3):
        m = parse_matrix(_read_text(path))
    res = smith_normal_form(m)
    click.echo(serialize_matrix(res.d))
    if transforms:
        click.echo("# P")
        click.echo(serialize_matrix(res.p))
        click.echo("# Q")
        click.echo(serialize_matrix(res.q))


@main.command("braid-eq")
@click.option("--n", type=click.IntRange(min=2), required=True, help="strand count")
@click.argument("word1")
@click.argument("word2")
def braid_eq_cmd(n, word1, word2):
    """Decide equality of two braid words via greedy normal forms."""
    from .garside import normal_form
    with _exit_on(ValueError, "parse error", 3):
        nf1 = normal_form(parse_word(word1), n)
        nf2 = normal_form(parse_word(word2), n)
    if nf1 == nf2:
        click.echo("equal: %s" % nf1)
    else:
        click.echo("different: %s vs %s" % (nf1, nf2))
        sys.exit(1)


@main.group("subgroup")
def subgroup_cmd():
    """Finitely generated subgroups of free groups."""


def _load_basis(path: str):
    lines = (line.strip() for line in _read_text(path).splitlines())
    return [parse_word(line) for line in lines
            if line and not line.startswith("#")]


@subgroup_cmd.command("express")
@click.option("--basis", "basis_path", required=True,
              help="file with one basis word per line")
@click.option("--word", "word_text", required=True)
def subgroup_express_cmd(basis_path, word_text):
    """Rewrite a member word in the given subgroup basis."""
    from .freesub import express, fold
    with _exit_on(ValueError, "parse error", 3):
        basis = _load_basis(basis_path)
        w = parse_word(word_text)
    graph = fold(basis)
    with _exit_on(ValueError, "error", 1):
        click.echo(word_to_text(express(graph, basis, w)))


@subgroup_cmd.command("member")
@click.option("--basis", "basis_path", required=True)
@click.option("--word", "word_text", required=True)
def subgroup_member_cmd(basis_path, word_text):
    """Membership of a word in the subgroup generated by the basis words."""
    from .freesub import contains, fold
    with _exit_on(ValueError, "parse error", 3):
        basis = _load_basis(basis_path)
        w = parse_word(word_text)
    if contains(fold(basis), w):
        click.echo("member")
    else:
        click.echo("not a member")
        sys.exit(1)


@main.command("hom-check")
@click.option("--in", "path", required=True)
@click.option("--target", required=True,  # the list is models.TARGETS
              help="one of: z2-z6, q8-f2, braid:N, braid:N-x-z")
@click.option("--assign", "assign_path", required=True,
              help="file of lines GEN = IMAGE")
@click.option("--relator", type=click.IntRange(min=0), default=None,
              help="evaluate only this relator (0-based index)")
@click.option("--json", "as_json", is_flag=True)
def hom_check_cmd(path, target, assign_path, relator, as_json):
    """Evaluate every relator under a generator assignment."""
    from . import hom, models
    p = _load_presentation(path)
    try:
        model = models.target(target)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    with _exit_on(ValueError, "parse error", 3):
        assignment = hom.parse_assignment(_read_text(assign_path), model)
    with _exit_on(ValueError, "error", 1):
        report = hom.check_hom(p, model, assignment, relator)
    for c in report.checks:
        if as_json:
            click.echo(json.dumps({"relator": word_to_text(c.relator),
                                   "image": c.image, "trivial": c.trivial}))
        else:
            click.echo("%s  %s -> %s" % ("ok " if c.trivial else "FAIL",
                                         word_to_text(c.relator), c.image))
    if not report.all_trivial:
        sys.exit(1)


@main.command("lcs-ranks")
@click.option("--family", type=click.Choice(["z2-free", "torus"]), required=True)
@click.option("--max-i", type=click.IntRange(min=2), default=8, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def lcs_ranks_cmd(family, max_i, as_json):
    """Closed-form lower central series ranks."""
    from . import series
    fn = series.lcs_rank_z2_free if family == "z2-free" else series.lcs_rank_torus
    for i in range(2, max_i + 1):
        rank = fn(i)
        click.echo(json.dumps({"i": i, "rank": rank}) if as_json
                   else "R_%d = %d" % (i, rank))


@main.command("verify")
@click.option("--filter", "filter_glob", default="all", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def verify_cmd(filter_glob, as_json):
    """Run the named verification suite."""
    from .verify import run_verify
    checks = run_verify(filter_glob)
    if not checks:
        raise click.UsageError("--filter %r matches no check" % filter_glob)
    failed = 0
    for c in checks:
        if as_json:
            click.echo(json.dumps({"id": c.id, "status": c.status,
                                   "expected": c.expected, "got": c.got,
                                   "paper_ref": ""}))
        else:
            click.echo("%-34s %s" % (c.id, c.status))
            if c.status == "FAIL":
                click.echo("    expected: %s" % c.expected)
                click.echo("    got:      %s" % c.got)
        if c.status == "FAIL":
            failed += 1
    if not as_json:
        click.echo("%d/%d passed" % (len(checks) - failed, len(checks)))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
