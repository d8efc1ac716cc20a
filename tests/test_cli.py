"""Command line interface, driven in process through `tests/cli_runner.py`
and, where the program name or a fresh interpreter matters, as
`python -m braidkit.cli`."""

import json
import os
import subprocess
import sys

import pytest
from cli_runner import commands, invoke

import braidkit
from braidkit import presentations, verify
from braidkit.cli import COMMANDS, main
from braidkit.intlin import mat_mul, parse_matrix
from braidkit.presentations import serialize
from braidkit.words import Gen

SRC = os.path.dirname(os.path.dirname(braidkit.__file__))


def run(*args, **kw):
    return invoke(main, args, **kw)


def test_present_and_ab_pipeline(tmp_path):
    res = run("present", "--family", "sphere", "--n", "4")
    assert res.exit_code == 0
    assert "group" in res.output and "gens:" in res.output
    f = tmp_path / "p.txt"
    f.write_text(res.output)
    res2 = run("ab", "--in", str(f))
    assert res2.exit_code == 0
    assert "Z/6" in res2.output


@pytest.mark.parametrize("args, missing", [
    (("sphere",), "--n"), (("punctured", "--n", "2"), "--m"),
    (("punctured", "--m", "2"), "--n"), (("affine-c",), "--m")])
def test_present_without_a_needed_option_is_a_usage_error(args, missing):
    res = run("present", "--family", *args)
    assert res.exit_code == 2
    assert "--family %s needs %s" % (args[0], missing) in res.output


def test_present_window_is_no_longer_an_option():
    # present builds finite presentations only; it never read --window
    res = run("present", "--family", "sphere", "--n", "4", "--window", "9")
    assert res.exit_code == 2
    assert "No such option" in res.output


@pytest.mark.parametrize("args, option", [
    (("verify", "--seed", "1"), "--seed"),
    (("present", "--family", "b22", "--n", "4"), "--n"),
    (("present", "--family", "sphere", "--n", "4", "--m", "3"), "--m"),
    (("rs", "--in", "-", "--mod", "6", "--window", "3", "--transversal", "s[1]"),
     "--window"),
], ids=["verify-seed", "present-b22-n", "present-sphere-m", "rs-mod-window"])
def test_unread_option_is_a_usage_error(args, option):
    pres = run("present", "--family", "sphere", "--n", "4").output
    res = run(*args, input=pres)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert option in res.stderr


def test_rs_window_defaults_to_two():
    pres = run("present", "--family", "artin", "--n", "3").output
    args = ("rs", "--in", "-", "--mod", "0", "--transversal", "s[1]")
    res = run(*args, input=pres)
    assert res.exit_code == 0
    assert res.output == run(*args, "--window", "2", input=pres).output


def test_ab_reads_stdin():
    res = run("ab", "--in", "-", input="group C2\ngens: a\nrel: a^2\n")
    assert res.exit_code == 0
    assert "Z/2" in res.output


def test_parse_error_exit_code():
    res = run("ab", "--in", "-", input="not a presentation\n")
    assert res.exit_code == 3


def test_usage_error_exit_code():
    res = run("ab")
    assert res.exit_code == 2


@pytest.mark.parametrize("command", [
    ["ab", "--in", "{}"],
    ["snf", "--in", "{}"],
    ["subgroup", "member", "--basis", "{}", "--word", "a"],
    ["subgroup", "express", "--basis", "{}", "--word", "a"],
    ["hom-check", "--in", "-", "--target", "z2-z6", "--assign", "{}"],
], ids=["ab-in", "snf-in", "member-basis", "express-basis", "hom-check-assign"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_file_is_a_usage_error(tmp_path, command, kind):
    path, reason = ((str(tmp_path / "nonexistent"), "No such file or directory")
                    if kind == "missing" else (str(tmp_path), "Is a directory"))
    pres = run("present", "--family", "sphere", "--n", "4").output
    res = run(*(arg.format(path) for arg in command), input=pres)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1] == "Error: cannot read %r: %s" % (path, reason)


# (arguments, the usage line after the program name, the error)
USAGE_ERRORS = [
    (["ab"], "ab [OPTIONS]", "Missing option '--in'."),
    (["braid-eq", "--n", "3", "s[1]"], "braid-eq [OPTIONS] WORD1 WORD2",
     "Missing argument 'WORD2'."),
    (["verify", "--seed", "1"], "verify [OPTIONS]", "No such option '--seed'."),
    (["lcs-ranks", "--fam", "torus"], "lcs-ranks [OPTIONS]",
     "No such option '--fam'. Did you mean '--family'?"),
    (["nosuch"], "[OPTIONS] COMMAND [ARGS]...", "No such command 'nosuch'."),
    (["lcs-ranks", "--family", "torus", "--max-i", "1"], "lcs-ranks [OPTIONS]",
     "Invalid value for '--max-i': 1 is not in the range x>=2."),
    (["braid-eq", "--n", "x", "s[1]", "s[1]"], "braid-eq [OPTIONS] WORD1 WORD2",
     "Invalid value for '--n': 'x' is not a valid integer range."),
    (["lcs-ranks", "--family", "x"], "lcs-ranks [OPTIONS]",
     "Invalid value for '--family': 'x' is not one of 'z2-free', 'torus'."),
]


@pytest.mark.parametrize("args, usage, message", USAGE_ERRORS,
                         ids=[" ".join(a) for a, _u, _m in USAGE_ERRORS])
def test_usage_error_of_a_real_process_names_the_program(args, usage, message):
    proc = subprocess.run([sys.executable, "-m", "braidkit.cli", *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    command = "python -m braidkit.cli" + ("" if args == ["nosuch"] else " " + args[0])
    assert proc.stderr.splitlines() == [
        "Usage: python -m braidkit.cli " + usage,
        "Try '%s --help' for help." % command, "", "Error: " + message]


def test_console_script_names_the_program(tmp_path):
    # the `braidkit` script that pip writes for `braidkit.cli:main`
    script = tmp_path / "braidkit"
    script.write_text("import sys\nfrom braidkit.cli import main\nsys.exit(main())\n")
    proc = subprocess.run([sys.executable, str(script), "ab"],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[:2] == ["Usage: braidkit ab [OPTIONS]",
                                            "Try 'braidkit ab --help' for help."]


def test_help_of_every_command_names_each_of_its_options():
    for path, _function, options in commands(COMMANDS):
        res = run(*path, "--help")
        assert (res.exit_code, res.stderr) == (0, ""), path
        assert res.stdout.startswith("Usage: main %s [OPTIONS]" % " ".join(path))
        assert {o.name for o in options} <= set(res.stdout.split()), path
    assert "--window INTEGER RANGE  [default: 2; x>=1]" in run("rs", "--help").stdout
    # a group run with no command prints its help as a usage error
    for group in ((), ("subgroup",)):
        res = run(*group)
        assert (res.exit_code, res.stdout) == (2, "")
        assert "\nCommands:\n" in res.stderr


def test_snf(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2 3\n2 4 6\n-1 3 5\n")
    res = run("snf", "--in", str(f))
    assert res.exit_code == 0
    assert res.output == "2 3\n1 0 0\n0 2 0\n\n"
    res2 = run("snf", "--in", str(f), "--transforms")
    assert res2.exit_code == 0
    d_text, rest = res2.output.split("# P\n")
    p_text, q_text = rest.split("# Q\n")
    assert d_text == res.output
    a, d, p, q = (parse_matrix(t) for t in (f.read_text(), d_text, p_text, q_text))
    assert mat_mul(p, a, q) == d


def test_braid_eq_exit_codes():
    assert run("braid-eq", "--n", "3", "s[1] s[2] s[1]", "s[2] s[1] s[2]").exit_code == 0
    assert run("braid-eq", "--n", "3", "s[1]", "s[2]").exit_code == 1


def test_braid_eq_generator_out_of_range_is_an_input_error():
    res = run("braid-eq", "--n", "3", "s[1]", "s[5]")
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == "parse error: generator s[5] out of range for 3 strands\n"


@pytest.mark.parametrize("args, option", [
    (("braid-eq", "--n", "1", "s[1]", "s[1]"), "--n"),
    (("rs", "--in", "-", "--mod", "-2", "--transversal", "s[1]"), "--mod"),
    (("rs", "--in", "-", "--mod", "0", "--window", "0", "--transversal", "s[1]"),
     "--window"),
    (("rs", "--in", "-", "--mod", "6", "--window", "0", "--transversal", "s[1]"),
     "--window"),
    (("hom-check", "--in", "-", "--target", "z2-z6", "--assign", "-",
      "--relator", "-1"), "--relator"),
], ids=["braid-eq-n", "rs-mod", "rs-window", "rs-window-unused", "hom-check-relator"])
def test_out_of_range_option_is_a_usage_error(args, option):
    # the option's declared range refuses the value before the command runs,
    # also where --mod is not 0 and so --window would go unread
    pres = run("present", "--family", "sphere", "--n", "4").output
    res = run(*args, input=pres)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert "Invalid value for '%s'" % option in res.stderr


def test_subgroup_member(tmp_path):
    f = tmp_path / "basis.txt"
    f.write_text("a^2\nb\n")
    assert run("subgroup", "member", "--basis", str(f), "--word", "b a^2").exit_code == 0
    assert run("subgroup", "member", "--basis", str(f), "--word", "a").exit_code == 1


def test_subgroup_express(tmp_path):
    f = tmp_path / "basis.txt"
    f.write_text("a^2\nb^2\na b a b\nb a^2 b^-1\na b^2 a^-1\n")
    res = run("subgroup", "express", "--basis", str(f), "--word", "a^2 b^2")
    assert res.exit_code == 0
    assert "z[1]" in res.output and "z[2]" in res.output


def test_subgroup_express_takes_a_basis_pairwise_shortening_misses(tmp_path):
    f = tmp_path / "basis.txt"
    f.write_text("b^-1 c^-1\nb^-1 a^-1 b\na^-1 c^-1\n")
    for word, expected in (("a", "z[3] z[1]^-1 z[2]^-1 z[1] z[3]^-1"),
                           ("b", "z[3] z[1]^-1 z[2]^-1"),
                           ("c", "z[1]^-1 z[2] z[1] z[3]^-1")):
        res = run("subgroup", "express", "--basis", str(f), "--word", word)
        assert res.exit_code == 0
        assert res.output == expected + "\n"


def test_rs_prints_dictionary():
    pres = run("present", "--family", "sphere", "--n", "4").output
    res = run("rs", "--in", "-", "--mod", "6", "--transversal", "s[1]",
              input=pres)
    assert res.exit_code == 0
    assert "# dict:" in res.output
    res2 = run("rs", "--in", "-", "--mod", "6", "--transversal", "s[1]",
               "--tietze", input=pres)
    assert res2.exit_code == 0


def test_rs_weights_name_indexed_generators():
    z2 = "group Z2\ngens: a[1] a[2]\nrel: a[1] a[2] a[1]^-1 a[2]^-1\n"
    for spec in ("*=1,a[2]=0", "*=0,a[1]=1"):
        res = run("rs", "--in", "-", "--mod", "0", "--transversal", "a[1]",
                  "--weights", spec, input=z2)
        assert res.exit_code == 0, res.output
        # a[2] has weight 0, so a2@0 = t^0 a[2] t^-0
        assert "#   a2[0] = a[2]\n" in res.output
    res = run("rs", "--in", "-", "--mod", "0", "--transversal", "a[1]",
              "--weights", "*=1,a[3]=0", input=z2)
    assert res.exit_code == 2
    assert "'a[3]=0' matches no generator" in res.output


def test_rs_weight_entry_may_name_a_generator_with_two_indices():
    # the comma inside A[1,3] separates indices, not weight entries
    pres = run("present", "--family", "punctured", "--m", "2", "--n", "2").output
    outputs = []
    for spec in ("*=1,A[1,3]=1", "*=1"):
        res = run("rs", "--in", "-", "--mod", "4", "--transversal", "A[1,3]",
                  "--weights", spec, input=pres)
        assert res.exit_code == 0, res.output
        outputs.append(res.output)
    assert outputs[0] == outputs[1]


def test_rs_weight_that_is_not_an_integer_is_a_usage_error():
    pres = run("present", "--family", "artin", "--n", "4").output
    res = run("rs", "--in", "-", "--mod", "2", "--transversal", "s[1]",
              "--weights", "*=x", input=pres)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "weight entry '*=x' is not PATTERN=INT" in res.output


def test_rs_transversal_that_is_not_a_generator_is_an_error():
    pres = run("present", "--family", "sphere", "--n", "4").output
    for modulus in ("6", "0"):
        res = run("rs", "--in", "-", "--mod", modulus, "--transversal", "x",
                  input=pres)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error: transversal x is not a generator of B4(S2)" in res.output


@pytest.mark.parametrize("command", [["rs", "--mod", "2"], ["g2g3"]],
                         ids=["rs", "g2g3"])
def test_transversal_that_is_not_a_word_is_a_usage_error(command):
    pres = run("present", "--family", "artin", "--n", "3").output
    res = run(*command, "--in", "-", "--transversal", "s[1", input=pres)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Error: unexpected character '[' at position 1" in res.output


def test_lcs_ranks_max_i_below_two_is_a_usage_error():
    for value in ("1", "-3"):
        res = run("lcs-ranks", "--family", "torus", "--max-i", value)
        assert res.exit_code == 2
        assert ("Invalid value for '--max-i': %s is not in the range x>=2."
                % value) in res.output


def test_lcs_ranks_json():
    res = run("lcs-ranks", "--family", "z2-free", "--max-i", "6", "--json")
    assert res.exit_code == 0
    rows = [json.loads(line) for line in res.output.splitlines() if line]
    assert [row["rank"] for row in rows] == [1, 2, 3, 5, 7]


def test_cli_runs_without_sympy(tmp_path):
    # stands in for a clean install, which has no dependency: each
    # subcommand, run in a fresh interpreter, loads its own layers there
    files = {"p.txt": run("present", "--family", "sphere", "--n", "4").output,
             "m.txt": "2 2\n2 4\n6 8\n", "basis.txt": "a^2\nb a b^-1\n",
             "assign.txt": "s[1] = (0,0);1\ns[2] = (1,0);1\ns[3] = (0,0);1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    p, m, basis, assign = (str(tmp_path / name) for name in files)
    env = dict(os.environ, PYTHONPATH=SRC)
    for args in (["present", "--family", "sphere", "--n", "4"],
                 ["ab", "--in", p],
                 ["rs", "--in", p, "--mod", "6", "--transversal", "s[1]"],
                 ["g2g3", "--in", p, "--transversal", "s[1]"],
                 ["snf", "--in", m],
                 ["braid-eq", "--n", "4", "s[1] s[2] s[1]", "s[2] s[1] s[2]"],
                 ["subgroup", "member", "--basis", basis, "--word", "b a^2 b^-1"],
                 ["subgroup", "express", "--basis", basis, "--word", "b a^2 b^-1"],
                 ["hom-check", "--in", p, "--target", "z2-z6", "--assign", assign],
                 ["lcs-ranks", "--family", "z2-free", "--max-i", "8"],
                 ["verify", "--filter", "snf-*"]):
        code = ("import sys; sys.modules['sympy'] = None; "
                "from braidkit.cli import main; main(%r)" % (args,))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout == run(*args).stdout, args


def test_output_does_not_depend_on_the_hash_seed():
    # str hashes, and the address hashes of interned generators, change from
    # run to run; no printed order may follow the order of a set or dict
    # keyed by them
    sphere = run("present", "--family", "sphere", "--n", "6").output
    for args, stdin in ((["verify", "--json"], None),
                        (["rs", "--in", "-", "--mod", "10", "--transversal", "s[1]",
                          "--tietze"], sphere)):
        outs = [subprocess.run([sys.executable, "-m", "braidkit.cli"] + args,
                               input=stdin, capture_output=True, text=True, timeout=120,
                               env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
                               ).stdout for seed in ("0", "1")]
        assert outs[0] and outs[0] == outs[1], args


def test_verify_filter_and_json():
    res = run("verify", "--filter", "snf-*", "--json")
    assert res.exit_code == 0
    rows = [json.loads(line) for line in res.output.splitlines() if line]
    assert rows and all(c["status"] == "PASS" for c in rows)
    assert all("paper_ref" in c for c in rows)


def test_verify_filter_that_matches_no_check_is_a_usage_error():
    # a mistyped filter must not pass with no check run
    res = run("verify", "--filter", "no-such-check-*")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "'no-such-check-*' matches no check" in res.stderr


def test_verify_empty_filter_is_a_usage_error():
    # '' matches no check id, so it runs none and is refused like any such filter
    res = run("verify", "--filter", "")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--filter '' matches no check" in res.stderr


def test_verify_star_filter_selects_every_check():
    everything, starred = run("verify"), run("verify", "--filter", "*")
    assert starred.stdout == everything.stdout
    assert starred.exit_code == everything.exit_code


def test_g2g3():
    pres = run("present", "--family", "sphere", "--n", "4").output
    res = run("g2g3", "--in", "-", "--transversal", "s[1]", input=pres)
    assert res.exit_code == 0


def test_g2g3_of_a_perfect_group_is_trivial():
    # G2(B5(S2)) is perfect; its abelianization Z/1 counts as cyclic
    pres = run("present", "--family", "g2b5").output
    res = run("g2g3", "--in", "-", "--transversal", "u[1]", input=pres)
    assert (res.exit_code, res.output) == (0, "1\n")


def test_g2g3_transversal_that_is_not_a_generator_is_an_error():
    pres = run("present", "--family", "sphere", "--n", "4").output
    res = run("g2g3", "--in", "-", "--transversal", "x", input=pres)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error: transversal x is not a generator of B4(S2)" in res.output


def test_g2g3_transversal_that_does_not_generate_is_an_error():
    z6 = "group z6\ngens: a b\nrel: a^6\nrel: b a^-2\nrel: a b a^-1 b^-1\n"
    res = run("g2g3", "--in", "-", "--transversal", "b", input=z6)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert ("error: transversal b maps to 2 in Z/6 and does not generate it"
            in res.output)


@pytest.mark.parametrize("command, text, message", [
    (["snf"], "0 3\n", "bad matrix header '0 3'"),
    (["snf"], "2 2\n1 x\n3 4\n", "row '1 x' has entry 'x', expected an integer"),
    (["ab"], "groupies G\ngens: a\nrel: a^2\n",
     "line 1, column 1: unrecognized line 'groupies G'"),
], ids=["snf-0x3", "snf-non-integer", "ab-groupies"])
def test_malformed_headers_are_parse_errors(command, text, message):
    res = run(*command, "--in", "-", input=text)
    assert res.exit_code == 3
    assert "parse error: " + message in res.output


def test_second_group_header_is_a_parse_error():
    res = run("ab", "--in", "-", input="group A\ngens: a b\nrel: a^2\n"
                                       "group B\ngens: c\nrel: c^3\n")
    assert res.exit_code == 3
    assert ("parse error: line 4, column 1: second 'group' header; "
            "this file already presents A") in res.output


def test_repeated_generator_is_a_parse_error():
    res = run("ab", "--in", "-", input="group g\ngens: a b a\nrel: a\n")
    assert res.exit_code == 3
    assert "parse error: line 2, column 1: duplicate generator a" in res.output


def test_cancelling_generator_list_is_a_parse_error():
    # read before free reduction: "a a^-1 b" must not declare b alone
    res = run("ab", "--in", "-", input="group g\ngens: a a^-1 b\nrel: b^2\n")
    assert (res.exit_code, res.stdout) == (3, "")
    assert res.stderr == ("parse error: line 2, column 1: "
                          "exponent not allowed in generator list\n")


def test_transversal_that_only_reduces_to_a_generator_is_a_usage_error():
    pres = run("present", "--family", "sphere", "--n", "4").output
    res = run("g2g3", "--in", "-", "--transversal", "s[1] s[2] s[2]^-1", input=pres)
    assert res.exit_code == 2
    assert "'s[1] s[2] s[2]^-1' is not a single generator" in res.stderr


@pytest.mark.parametrize("rel", ["1", "a a^-1"])
def test_freely_trivial_relator_is_a_parse_error(rel):
    res = run("ab", "--in", "-",
              input="group g\ngens: a b\nrel: a b\nrel: %s\n" % rel)
    assert res.exit_code == 3
    assert "parse error: line 4, column 5: relator is freely trivial" in res.output


def test_hom_check_z2z6(tmp_path):
    pres = run("present", "--family", "sphere", "--n", "4").output
    pf = tmp_path / "p.txt"
    pf.write_text(pres)
    af = tmp_path / "assign.txt"
    af.write_text("s[1] = (0,0);1\ns[2] = (1,0);1\ns[3] = (0,0);1\n")
    res = run("hom-check", "--in", str(pf), "--target", "z2-z6",
              "--assign", str(af), "--json")
    assert res.exit_code == 0
    rows = [json.loads(line) for line in res.output.splitlines() if line]
    assert rows and all(r["trivial"] for r in rows)


@pytest.mark.parametrize("target, images, message, lineno", [
    ("z2-z6", "s[1] = (0,0,7);1", "vector '(0,0,7)' needs 2 entries, has 3", 2),
    ("z2-z6", "s[1] = (0);1", "vector '(0)' needs 2 entries, has 1", 2),
    ("z2-z6", "s[1] = (0,0)", "image '(0,0)' needs exactly one ';'", 2),
    ("z2-z6", "s[1] = (0,0);1;1", "image '(0,0);1;1' needs exactly one ';'", 2),
    ("z2-z6", "s[1] = (1, x);0", "vector '(1, x)' entry 'x' is not an integer", 2),
    ("z2-z6", "s[1] = (0,0);y", "Z/6 element 'y' is not an integer", 2),
    ("braid:3-x-z", "s[1] = s[1];x", "Z element 'x' is not an integer", 2),
    ("q8-f2", "a = zz;a", "unknown element 'zz'; known: 1 -1 x -x y -y xy -xy", 2),
    ("q8-f2", "a = x", "image 'x' needs exactly one ';'", 2),
    ("q8-f2", "a x;a", "expected GEN = IMAGE, got 'a x;a'", 2),
    ("q8-f2", "a^2 = x;a", "'a^2' is not a single generator", 2),
    ("braid:3", "s[1] = s[1]\ns[2] = s[2]\ns[1] = s[2]",
     "generator s[1] is assigned twice", 4)])
def test_hom_check_malformed_image_is_a_parse_error(tmp_path, target, images,
                                                    message, lineno):
    pf = tmp_path / "p.txt"
    pf.write_text(run("present", "--family", "sphere", "--n", "4").output
                  if target == "z2-z6" else "group F2\ngens: a b\nrel: a b a^-1 b^-1\n")
    af = tmp_path / "assign.txt"
    af.write_text("# the comment is line 1\n" + images + "\n")
    res = run("hom-check", "--in", str(pf), "--target", target,
              "--assign", str(af))
    assert res.exit_code == 3
    assert res.stderr == "parse error: line %d: %s\n" % (lineno, message)


def test_hom_check_replay_hint_runs(tmp_path):
    from braidkit.hom import check_hom
    from braidkit.models import z2z6_model
    from braidkit.presentations import parse_presentation

    pres = run("present", "--family", "sphere", "--n", "4").output
    pf = tmp_path / "p.txt"
    pf.write_text(pres)
    af = tmp_path / "assign.txt"
    af.write_text("s[1] = (0,0);1\ns[2] = (0,1);0\ns[3] = (0,0);1\n")
    rest = ["--in", str(pf), "--target", "z2-z6", "--assign", str(af)]
    full = run("hom-check", *rest)
    assert full.exit_code == 1
    lines = full.output.splitlines()
    p = parse_presentation(pres)
    assignment = {Gen("s", (1,)): ((0, 0), 1), Gen("s", (2,)): ((0, 1), 0),
                  Gen("s", (3,)): ((0, 0), 1)}
    checks = check_hom(p, z2z6_model(), assignment).checks
    assert any(not c.trivial for c in checks)
    for c in checks:
        one = run("hom-check", "--relator", str(c.index), *rest)
        assert one.exit_code == (0 if c.trivial else 1)
        assert one.output.splitlines() == [lines[c.index]]
    assert run("hom-check", "--relator", str(len(checks)), *rest).exit_code == 1


@pytest.mark.parametrize("target, pres, images", [
    ("z2-z6", ("sphere", "4"), "s[1] = (0,0);1\ns[2] = (0,1);0\ns[3] = (0,0);1\n"),
    ("q8-f2", "group P\ngens: a b\nrel: a^4\nrel: a b a^-1 b^-1\nrel: b^2 a\n",
     "a = x;a\nb = 1;b^-1\n"),
    ("braid:3", ("artin", "3"), "s[1] = s[1]^2\ns[2] = s[2]^-1 s[1]\n"),
    ("braid:3-x-z", ("artin", "3"), "s[1] = s[1]^2;1\ns[2] = s[2];0\n"),
    ("braid:4", ("sphere", "4"), "s[1] = s[1]\ns[2] = s[2]\ns[3] = s[3]\n")],
    ids=["z2-z6", "q8-f2", "braid:3", "braid:3-x-z", "braid:4"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_hom_check_images_parse_back_to_their_elements(tmp_path, target, pres,
                                                       images, as_json):
    from braidkit import hom, models
    from braidkit.presentations import parse_presentation

    if isinstance(pres, tuple):
        pres = run("present", "--family", pres[0], "--n", pres[1]).output
    pf = tmp_path / "p.txt"
    pf.write_text(pres)
    af = tmp_path / "assign.txt"
    af.write_text(images)
    res = run("hom-check", "--in", str(pf), "--target", target,
              "--assign", str(af), *(["--json"] if as_json else []))
    model = models.target(target)
    assignment = hom.parse_assignment(images, model)
    lines = res.output.splitlines()
    relators = parse_presentation(pres).relators
    assert len(lines) == len(relators)
    for line, r in zip(lines, relators):
        text = json.loads(line)["image"] if as_json else line.split(" -> ")[1]
        assert model.parse(text) == model.eval_word(assignment, r), text


# per verify hom check: a line of its images, that line mutated, and the
# exit code of hom-check on the mutated images.  B_2 is Z and every relator
# of affine_C(2) has exponent sum 0 in each generator, so every assignment
# of affine_C(2) into B_2 is a homomorphism: that check passes whatever its
# images are.
HOM_MUTATIONS = {
    "hom-sphere4": ("s[2] = (1, 0);1", "s[2] = (0, 1);0", 1),
    "hom-g2b4": ("g[1] = 1;a", "g[1] = 1;b", 1),
    "hom-affine-c-retract-m2": ("r[1] = 1", "r[1] = s[1]", 0),
    "hom-affine-c-retract-m3": ("r[1] = 1", "r[1] = s[1]", 1),
    "hom-affine-c-retract-m4": ("r[1] = 1", "r[1] = s[1]", 1),
    "hom-punctured-4-2": ("s[3] = s[1];0", "s[3] = s[2];0", 1),
}


@pytest.mark.parametrize("check", verify.HOM_CHECKS, ids=lambda c: c[0])
def test_verify_hom_check_replays_and_its_mutation_is_caught(tmp_path, check):
    cid, _description, builder, args, target, images = check
    line, mutated, mutated_exit = HOM_MUTATIONS[cid]
    lines = images.splitlines()
    lines[lines.index(line)] = mutated
    pf = tmp_path / "p.txt"
    pf.write_text(serialize(getattr(presentations, builder)(*args)))
    af = tmp_path / "assign.txt"
    for text, code in ((images, 0), ("\n".join(lines), mutated_exit)):
        af.write_text(text)
        res = run("hom-check", "--in", str(pf), "--target", target,
                  "--assign", str(af))
        assert res.exit_code == code, (text, res.output)
        assert ("FAIL" in res.output) == bool(code)


def test_hom_check_help_lists_exactly_the_targets():
    from braidkit import models

    option, = (o for o in COMMANDS["hom-check"][1] if o.name == "--target")
    assert option.help == "one of: " + ", ".join(models.TARGETS)
    assert option.help in " ".join(run("hom-check", "--help").output.split())


def test_hom_check_generator_outside_the_presentation_is_an_error(tmp_path):
    pf = tmp_path / "p.txt"
    pf.write_text(run("present", "--family", "sphere", "--n", "4").output)
    af = tmp_path / "assign.txt"
    af.write_text("s[1] = (0,0);1\ns[2] = (1,0);1\ns[3] = (0,0);1\ns[9] = (5,5);3\n")
    res = run("hom-check", "--in", str(pf), "--target", "z2-z6", "--assign", str(af))
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == ("error: s[9] is assigned an image but is not a "
                          "generator of B4(S2)\n")


def test_hom_check_bad_braid_target_is_a_usage_error(tmp_path):
    pf = tmp_path / "p.txt"
    pf.write_text(run("present", "--family", "artin", "--n", "3").output)
    af = tmp_path / "assign.txt"
    af.write_text("s[1] = s[1]\ns[2] = s[2]\n")
    for target in ("braid:x", "braid:1", "braid:0-x-z", "braid:-x-z"):
        res = run("hom-check", "--in", str(pf), "--target", target,
                  "--assign", str(af))
        assert res.exit_code == 2, target
        assert isinstance(res.exception, SystemExit)
        assert "target %r needs a strand count N >= 2" % target in res.output
    ok = run("hom-check", "--in", str(pf), "--target", "braid:3",
             "--assign", str(af))
    assert ok.exit_code == 0


def test_hom_check_braid_times_z_image_without_its_z_part_is_a_parse_error(tmp_path):
    pf = tmp_path / "p.txt"
    pf.write_text(run("present", "--family", "artin", "--n", "3").output)
    af = tmp_path / "assign.txt"
    for images in ("s[1] = s[1]\ns[2] = s[2]\n", "s[1] = s[1];0;1\ns[2] = s[2];0\n",
                   "s[1] = s[1];x\ns[2] = s[2];0\n"):
        af.write_text(images)
        res = run("hom-check", "--in", str(pf), "--target", "braid:3-x-z",
                  "--assign", str(af))
        assert res.exit_code == 3, images
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("parse error: ")
    af.write_text("s[1] = s[1];0\ns[2] = s[2];0\n")
    ok = run("hom-check", "--in", str(pf), "--target", "braid:3-x-z",
             "--assign", str(af))
    assert ok.exit_code == 0
