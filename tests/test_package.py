import sys
import types

import pytest

import chebdisk

from helpers import run_python

PUBLIC_NAMES = [
    "ChebyshevBlaschke", "EllipticContext", "GeodesicSegment", "MonodromyRep",
    "Permutation", "UpperHalfPoint", "annulus_modulus", "build", "cd",
    "chebyshev_monodromy", "chebyshev_poly", "cn", "compose_check",
    "covering_modulus", "critical_values", "deserialize", "dessin_size",
    "dessin_stats", "disk_minus_geodesic_modulus", "dn", "elliptic",
    "elliptic_rational", "errors", "eval_expanded", "eval_product",
    "grotzsch_modulus", "is_transitive", "is_tree", "jsonio", "k_modulus",
    "modulus", "modulus_lambda", "monodromy", "normalized_modulus", "omega1",
    "parse_permutation", "poincare_distance", "products", "serialize", "sn",
    "sqrt_k", "theta",
]


def test_all_lists_the_public_names():
    assert chebdisk.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(chebdisk))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_submodules_object(name):
    obj = getattr(chebdisk, name)
    if isinstance(obj, types.ModuleType):
        assert obj is sys.modules[f"chebdisk.{name}"]
    else:
        assert obj.__module__.startswith("chebdisk.")
        assert obj is getattr(sys.modules[obj.__module__], name)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        chebdisk.nope


@pytest.mark.parametrize("first", ["", "import chebdisk.cli; "], ids=["fresh", "after cli"])
def test_theta_name_is_the_function(first):
    code, out, err = run_python(
        "-c", first + "from chebdisk import theta; print(type(theta).__name__)"
    )
    assert code == 0, err
    assert out.strip() == "function"


def test_import_loads_only_theta():
    code, out, err = run_python(
        "-c",
        "import sys, chebdisk;"
        " print(' '.join(sorted(m for m in sys.modules if m.startswith('chebdisk'))))",
    )
    assert code == 0, err
    assert out.split() == ["chebdisk", "chebdisk._value", "chebdisk.errors", "chebdisk.theta"]
