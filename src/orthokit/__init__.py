"""Toolkit for families of mutually orthogoval finite affine and
projective spaces: field and geometry plumbing, constructions,
verification, upper bounds, and deterministic searches."""

__version__ = "0.1.0"

from . import bounds, build, bundle, check, errors, explore, geom, gf  # noqa: F401,E402
from .bounds import BoundReport, bound_report, johnson_bound, triple_bound  # noqa: F401
from .build import (  # noqa: F401
    BIG_SETS_TABLE,
    build_askew_pair,
    build_char_p_pair,
    build_phi_family,
    build_phi_map,
    build_product_family,
    catalog_family,
    catalog_names,
    phi_space,
)
from .bundle import read_bundle, write_bundle  # noqa: F401
from .check import (  # noqa: F401
    Space,
    Verdict,
    are_mutually_orthogoval,
    from_form,
    from_map,
    is_askew_pair,
    is_half_dimension_orthogoval,
    is_k_orthogoval_pair,
    is_orthomorphism,
    standard,
)
from .explore import (  # noqa: F401
    clique_search,
    exponent_scan,
    half_dim_exhaustive,
    power_chain,
    seven_ag2_f3,
)
from .geom import Geometry, affine, projective  # noqa: F401
from .gf import GF, field_create  # noqa: F401
