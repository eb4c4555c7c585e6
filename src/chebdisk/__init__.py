"""Chebyshev-Blaschke products and their theta-function machinery.

Submodules:
    theta      Jacobi theta series under the q = e^{2 pi i tau} convention
    elliptic   sn/cn/dn/cd as theta quotients
    products   Chebyshev-Blaschke products: zeros, coefficients, derivatives
    monodromy  permutation-pair representations, trees, dessin counts
    modulus    annulus / Grotzsch / disk-minus-geodesic moduli
    landen     Landen-type identities and trigonometric limits
    acceptance criteria runners backing `chebdisk verify-all`
"""

from .theta import UpperHalfPoint, theta
from .elliptic import EllipticContext, cd, cn, dn, k_modulus, omega1, sn, sqrt_k
from .products import (
    ChebyshevBlaschke,
    build,
    chebyshev_poly,
    compose_check,
    critical_values,
    elliptic_rational,
    eval_expanded,
    eval_product,
    modulus_lambda,
    normalized_modulus,
    serialize,
    deserialize,
)
from .monodromy import (
    MonodromyRep,
    Permutation,
    chebyshev_monodromy,
    dessin_stats,
    is_transitive,
    is_tree,
    parse_permutation,
)
from .modulus import (
    GeodesicSegment,
    annulus_modulus,
    covering_modulus,
    dessin_size,
    disk_minus_geodesic_modulus,
    grotzsch_modulus,
    poincare_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
