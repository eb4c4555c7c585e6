"""Chebyshev-Blaschke products and their theta-function machinery.

Submodules:
    theta      Jacobi theta series under the q = e^{2 pi i tau} convention
    elliptic   sn/cn/dn/cd as theta quotients
    products   Chebyshev-Blaschke products: zeros, coefficients, derivatives
    monodromy  permutation-pair representations, trees, dessin counts
    modulus    annulus / Grotzsch / disk-minus-geodesic moduli
    landen     Landen-type identities and trigonometric limits
    acceptance criteria runners backing `chebdisk verify-all`

``import chebdisk`` loads only ``theta`` (with ``errors`` and ``_value``);
every other public name loads its submodule on first use (PEP 562).
"""

# Eager, so that chebdisk.theta stays the function: importing the submodule
# binds the package attribute `theta` to the module, and this line rebinds it.
from .theta import UpperHalfPoint, theta

# public name -> the submodule defining it
_LAZY = {
    **dict.fromkeys(
        ("EllipticContext", "cd", "cn", "dn", "k_modulus", "omega1", "sn", "sqrt_k"),
        "elliptic",
    ),
    **dict.fromkeys(
        ("ChebyshevBlaschke", "build", "chebyshev_poly", "compose_check",
         "critical_values", "elliptic_rational", "eval_expanded", "eval_product",
         "modulus_lambda", "normalized_modulus", "serialize", "deserialize"),
        "products",
    ),
    **dict.fromkeys(
        ("MonodromyRep", "Permutation", "chebyshev_monodromy", "dessin_stats",
         "is_transitive", "is_tree", "parse_permutation"),
        "monodromy",
    ),
    **dict.fromkeys(
        ("GeodesicSegment", "annulus_modulus", "covering_modulus", "dessin_size",
         "disk_minus_geodesic_modulus", "grotzsch_modulus", "poincare_distance"),
        "modulus",
    ),
}
_SUBMODULES = ("elliptic", "errors", "jsonio", "modulus", "monodromy", "products")

__all__ = sorted(["UpperHalfPoint", "theta", *_LAZY, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        module, attr = name, None
    elif name in _LAZY:
        module, attr = _LAZY[name], name
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f"{__name__}.{module}")
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
