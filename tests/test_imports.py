"""What importing braidkit loads: the package root binds its public names on
first use, and each CLI command and each `verify` check loads only the
layers it runs.  Footprints are read from `sys.modules` of a fresh
interpreter."""

import os
import subprocess
import sys

import pytest

import braidkit

SRC = os.path.dirname(os.path.dirname(braidkit.__file__))
START_UP = {"braidkit", "braidkit.cli", "braidkit.words"}


def _loaded(code: str) -> set:
    """The braidkit modules a fresh interpreter holds after running `code`."""
    probe = code + ("\nimport sys\nprint(' '.join(m for m in sys.modules"
                    " if m.split('.')[0] == 'braidkit'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _after_command(*args) -> set:
    return _loaded("from braidkit.cli import main\nmain(%r, standalone_mode=False)"
                   % (list(args),))


def test_import_braidkit_loads_no_layer():
    assert _loaded("import braidkit") == {"braidkit"}


def test_cli_start_up_loads_only_words():
    assert _loaded("import braidkit.cli") == START_UP


def test_braid_eq_adds_only_garside():
    loaded = _after_command("braid-eq", "--n", "4", "s[1] s[2] s[1]", "s[2] s[1] s[2]")
    assert loaded == START_UP | {"braidkit.garside"}


def test_ab_loads_neither_garside_nor_models_freesub_hom_or_verify(tmp_path):
    pf = tmp_path / "p.txt"
    pf.write_text("group g\ngens: a b\nrel: a b a^-1 b^-1\n")
    loaded = _after_command("ab", "--in", str(pf))
    assert "braidkit.series" in loaded
    assert not loaded & {"braidkit." + m
                         for m in ("garside", "models", "freesub", "hom", "verify")}


@pytest.mark.parametrize("command, layers", [
    (["ab", "--in", "{}"], ("series", "intlin", "presentations")),
    (["g2g3", "--in", "{}", "--transversal", "a"], ("series", "intlin", "presentations")),
    (["lcs-ranks", "--family", "torus", "--max-i", "3"], ("series", "intlin"))],
    ids=["ab", "g2g3", "lcs-ranks"])
def test_series_commands_load_no_rewriter(tmp_path, command, layers):
    # g2g3 answers from the abelianization alone, so none of these loads
    # braidkit.reidschreier; presentations comes with the file parser, which
    # lcs-ranks does not run
    pf = tmp_path / "p.txt"
    pf.write_text("group z6\ngens: a b\nrel: a^6\nrel: b a^-2\n")
    loaded = _after_command(*(arg.format(pf) for arg in command))
    assert loaded == START_UP | {"braidkit." + m for m in layers}


def test_series_imports_presentations_for_annotations_only():
    assert _loaded("import braidkit.series") == {
        "braidkit", "braidkit.series", "braidkit.intlin", "braidkit.words"}


def test_hom_check_loads_its_target_models_but_no_linear_algebra(tmp_path):
    pf, af = tmp_path / "p.txt", tmp_path / "a.txt"
    pf.write_text("group g\ngens: a b\nrel: a b a^-1 b^-1\n")
    af.write_text("a = (0, 1);0\nb = (1, 0);0\n")
    loaded = _after_command("hom-check", "--in", str(pf), "--target", "z2-z6",
                            "--assign", str(af))
    assert loaded == START_UP | {"braidkit." + m
                                 for m in ("presentations", "hom", "models", "garside")}


def _after_verify(pattern: str) -> set:
    """The footprint of `verify --filter PATTERN`, which exits 1 when it
    selects a documented discrepancy."""
    return _loaded("from braidkit.cli import main\ntry:\n"
                   "    main(['verify', '--filter', %r], standalone_mode=False)\n"
                   "except SystemExit as exc:\n    assert exc.code == 1\n" % pattern)


def test_verify_of_the_frozen_matrices_loads_only_linear_algebra():
    assert _after_verify("mat-*") == START_UP | {"braidkit.verify", "braidkit.intlin"}


def test_verify_of_the_braid_checks_adds_only_garside():
    assert _after_verify("braid-*") == START_UP | {"braidkit." + m
                                                   for m in ("verify", "intlin", "garside")}


def test_verify_of_the_abelianizations_loads_no_rewriter_or_model():
    loaded = _after_verify("ab-*")
    assert "braidkit.series" in loaded
    assert not loaded & {"braidkit." + m
                         for m in ("garside", "models", "freesub", "hom", "reidschreier")}


def test_every_public_name_is_the_object_of_its_home_module():
    for name in braidkit.__all__:
        obj = getattr(braidkit, name)
        assert obj.__module__.startswith("braidkit."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        braidkit.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from braidkit import *", namespace)
    assert {name: namespace[name] for name in braidkit.__all__} == {
        name: getattr(braidkit, name) for name in braidkit.__all__}
