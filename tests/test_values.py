"""The frozen value classes: repr, equality, hash and frozenness."""

import copy
import pickle

import pytest

from chebdisk.acceptance import CriterionResult
from chebdisk.landen import IdentityReport
from chebdisk.modulus import GeodesicSegment
from chebdisk.monodromy import DessinStats, MonodromyRep, Permutation
from chebdisk.theta import UpperHalfPoint


def _rep():
    return MonodromyRep(3, Permutation((2, 1, 3)), Permutation((1, 3, 2)))


# (constructor, repr); each constructor returns a new, equal instance per call
CASES = {
    "UpperHalfPoint": (lambda: UpperHalfPoint(0.25 + 1j), "UpperHalfPoint(value=(0.25+1j))"),
    "Permutation": (lambda: Permutation((2, 1, 3)), "Permutation(images=(2, 1, 3))"),
    "MonodromyRep": (
        _rep,
        "MonodromyRep(n=3, sigma1=Permutation(images=(2, 1, 3)),"
        " sigma2=Permutation(images=(1, 3, 2)))",
    ),
    "DessinStats": (lambda: DessinStats(vertices=4, edges=3), "DessinStats(vertices=4, edges=3)"),
    "IdentityReport": (
        lambda: IdentityReport(
            identity_id="n2_prod", tau=UpperHalfPoint(1j), lhs=0.25 + 0j, rhs=0.25 + 0j,
            residual=0.0, tolerance=1e-10, passed=True,
        ),
        "IdentityReport(identity_id='n2_prod', tau=UpperHalfPoint(value=1j),"
        " lhs=(0.25+0j), rhs=(0.25+0j), residual=0.0, tolerance=1e-10, passed=True)",
    ),
    "GeodesicSegment": (
        lambda: GeodesicSegment(-0.5, 0.25j), "GeodesicSegment(a=(-0.5+0j), b=0.25j)"
    ),
    "CriterionResult": (
        lambda: CriterionResult(2, "cd degeneration", True, 1e-16, 1e-10, "y=20"),
        "CriterionResult(number=2, name='cd degeneration', passed=True, worst=1e-16,"
        " tolerance=1e-10, detail='y=20', seconds=0.0)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_equal_instances_hash_alike(name):
    make, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object()


@pytest.mark.parametrize("name", CASES)
def test_frozen(name):
    make, _ = CASES[name]
    value = make()
    field = repr(value).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_round_trip(name):
    make, text = CASES[name]
    value = make()
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value and repr(clone) == text


def test_unequal_fields_compare_unequal():
    assert Permutation((2, 1, 3)) != Permutation((1, 2, 3))
    assert UpperHalfPoint(1j) != UpperHalfPoint(2j)
    assert DessinStats(4, 3) != DessinStats(3, 4)


def test_criterion_result_equality_ignores_seconds():
    a = CriterionResult(9, "monodromy suite", True, 0.0, 0.0, "exhaustive n<=5")
    b = CriterionResult(9, "monodromy suite", True, 0.0, 0.0, "exhaustive n<=5", seconds=1.5)
    assert a == b and hash(a) == hash(b)
    assert b.seconds == 1.5
    assert a != CriterionResult(9, "monodromy suite", False, 1.0, 0.0, "exhaustive n<=5")
