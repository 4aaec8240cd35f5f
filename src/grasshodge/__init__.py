"""Exact arithmetic for hard Lefschetz certificates on Grassmannians of lines.

The package verifies, in rational arithmetic throughout, the positivity of
the correction certificate on the Grassmannian of lines, the hypergeometric
identities behind its closed form, and the bound |R_n(s, T)| <= 1 for the
associated Racah values.  See the README for the command-line entry points.
"""

from .chowring import (
    ChowElement,
    PrimitiveProfile,
    betti,
    box_partitions,
    hodge_star,
    intersection_pairing,
    lefschetz_kernel,
    lefschetz_power,
    primitive_class,
    primitive_profile,
)
from .exactmath import (
    binomial,
    decimal_approx,
    exp_compare,
    format_rational,
    harmonic,
    parse_rational,
    random_concave,
    validate_concave,
)
from .lefschetz import (
    NotPrimitive,
    SigmaInstance,
    certificate,
    chain_constant,
    correction_op,
    proj_commutator_check,
    sigma_closed,
    sigma_direct,
)
from .racah import (
    Inequality,
    InexactStep,
    ScanReport,
    alternating_profile,
    alternating_row,
    bound_scan,
    certify_alternating_bound,
    n_below_log,
    orthogonality_profile,
    principal_weight,
    racah_eval,
    route_labels,
)

__version__ = "0.1.0"
