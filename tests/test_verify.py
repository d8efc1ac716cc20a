"""The verification suite as a whole: shape, determinism, known outcomes."""

import pytest

from braidkit import verify
from braidkit.verify import run_verify

# Checks whose reference values disagree with what this code base derives;
# each one is reported with a full expected/got diff rather than patched.
# The established values, which test_acceptance.py asserts instead:
#   ab-punctured-m1-n{1..4}  1, Z, Z^2, Z^3: B_1 of the n-punctured sphere is
#                            free of rank n-1 (the paper's abstract)
#   rs-reproduce-n4, -n5     same generators, and the same relators as
#                            fullpres(n) up to the shared [w, v_j]
#                            commutations, rotation and inversion (criterion 08)
#   schreier-basis-printed   the mechanical set has a b a^-1 b for b^2, a
#                            Nielsen move; both generate the same rank-5
#                            subgroup (derivation in criterion 11)
#   annulus-coinvariants-m5  1 stable: Gamma_2 is perfect for m >= 5 and
#                            n >= 2 (the paper's abstract)
DOCUMENTED_DISCREPANCIES = {
    "ab-punctured-m1-n1", "ab-punctured-m1-n2",
    "ab-punctured-m1-n3", "ab-punctured-m1-n4",
    "rs-reproduce-n4", "rs-reproduce-n5",
    "schreier-basis-printed",
    "annulus-coinvariants-m5",
}


@pytest.fixture(scope="module")
def checks():
    return run_verify()


def test_ids_unique(checks):
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids))


def test_every_check_has_expected_and_got(checks):
    for c in checks:
        assert c.status in ("PASS", "FAIL")
        assert c.description
        assert c.expected != "" and c.got != ""


def test_only_documented_discrepancies_fail(checks):
    failing = {c.id for c in checks if c.status != "PASS"}
    unexpected = failing - DOCUMENTED_DISCREPANCIES
    assert not unexpected, "new failures: %s" % sorted(unexpected)


def test_filter_selects_subset():
    sub = run_verify("ab-sphere-*")
    assert len(sub) == 6
    assert all(c.id.startswith("ab-sphere-") for c in sub)


def test_deterministic(checks):
    again = run_verify()
    assert [(c.id, c.status, c.got) for c in again] == \
        [(c.id, c.status, c.got) for c in checks]


def test_filtered_run_computes_only_matched_checks(monkeypatch):
    def unexpected(*_args, **_kwargs):
        raise AssertionError("a check outside the filter was computed")
    monkeypatch.setattr(verify.series, "abelianization", unexpected)
    monkeypatch.setattr(verify.hom, "check_hom", unexpected)
    sub = run_verify("mat-*")
    assert [c.id for c in sub] == ["mat-u-inverse", "mat-v-inverse",
                                   "mat-commutator", "mat-c-inverse",
                                   "mat-nested-commutator"]
    assert all(c.status == "PASS" for c in sub)


def test_each_check_runs_alone(checks):
    for c in checks:
        assert run_verify(c.id) == [c]
