"""Relator-by-relator homomorphism verification."""

import pytest

from braidkit.hom import check_hom, image_order
from braidkit.models import q8, z2z6_model
from braidkit.presentations import sphere_braid
from braidkit.words import Gen

S = lambda i: Gen("s", (i,))


def good_assignment():
    return {S(1): ((0, 0), 1), S(2): ((1, 0), 1), S(3): ((0, 0), 1)}


def test_valid_homomorphism_all_trivial():
    rep = check_hom(sphere_braid(4), z2z6_model(), good_assignment())
    assert rep.all_trivial
    assert tuple(c for c in rep.checks if not c.trivial) == ()
    assert len(rep.checks) == len(sphere_braid(4).relators)


def test_invalid_assignment_reports_failures():
    bad = good_assignment()
    bad[S(2)] = ((0, 1), 0)  # breaks the braid relators
    rep = check_hom(sphere_braid(4), z2z6_model(), bad)
    assert not rep.all_trivial
    failures = [c for c in rep.checks if not c.trivial]
    assert failures
    # every failing check carries a replay command for the CLI
    for c in failures:
        assert "hom-check" in c.replay
        assert "--relator %d" % c.index in c.replay


def test_missing_generator_raises():
    partial = good_assignment()
    del partial[S(3)]
    with pytest.raises(Exception):
        check_hom(sphere_braid(4), z2z6_model(), partial)


def test_image_order():
    t = q8()
    assert image_order(t, ["x", "y"]) == 8
    assert image_order(t, [t.mul("x", "x")]) == 2
    assert image_order(t, []) == 1
