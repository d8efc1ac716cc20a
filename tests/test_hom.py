"""Relator-by-relator homomorphism verification."""

import pytest

from braidkit.hom import check_hom
from braidkit.models import CyclicZ, z2z6_model
from braidkit.presentations import sphere_braid
from braidkit.words import Gen
from oracles import pure_sphere_kernel

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
    p = sphere_braid(4)
    rep = check_hom(p, z2z6_model(), bad)
    assert not rep.all_trivial
    failures = [c for c in rep.checks if not c.trivial]
    assert failures
    # each check carries its relator's index, from which it replays alone
    for c in failures:
        assert c.relator == p.relators[c.index]
        assert check_hom(p, z2z6_model(), bad, c.index).checks == (c,)


def test_missing_generator_raises():
    partial = good_assignment()
    del partial[S(3)]
    with pytest.raises(Exception):
        check_hom(sphere_braid(4), z2z6_model(), partial)


def test_assignment_check_at_the_scale_of_the_raw_p6_kernel():
    # 2881 generators and 7920 relators: the assigned generators are checked
    # against a set, not scanned through the generator tuple one by one
    p = pure_sphere_kernel(6).presentation
    assert (len(p.generators), len(p.relators)) == (2881, 7920)
    model = CyclicZ(0)
    assignment = {g: 0 for g in p.generators}
    rep = check_hom(p, model, assignment)
    assert rep.all_trivial and len(rep.checks) == 7920
    extra = Gen("x", (7,))
    with pytest.raises(ValueError, match=r"^x\[7\] is assigned an image but is "
                       r"not a generator of "):
        check_hom(p, model, {**assignment, extra: 0})
