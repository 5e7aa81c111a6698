"""diophlab: exact-arithmetic experiments in restricted Diophantine approximation.

The package counts prime-constrained simultaneous approximation tuples on
lines, integrates the counting function exactly over the approximated
parameter, and audits the analytic bounds (sawtooth approximation, bilinear
prime sums, rational-approximation denominators) that drive the counting
estimates.
"""

from .arith import ArithTable, build_arith_table
from .errors import (
    ConfigError,
    ContractError,
    DiophLabError,
    RangeError,
    ResourceCapError,
)
from .fixedreal import (
    CVector,
    DiophCertificate,
    FixedReal,
    constant,
    dioph_certify,
    dirichlet_approx,
    dist_nearest_int,
    inner_product,
    parse_real,
    scaled_floor_frac,
)

__version__ = "0.1.0"

from .counting import (  # noqa: E402
    ApproxConfig,
    SieveSideParams,
    SolutionTuple,
    WindowParams,
    count_witnesses,
    product_set,
    riemann_scan,
    sieve_error_sum,
    sieve_side_counts,
    sieve_side_rows,
    target_growth,
    target_growth_alt,
    window_counts,
    witness_integral,
)
from .fourier import (  # noqa: E402
    VaalerPolynomial,
    box_min_sum,
    dyadic_weighted_min_sum,
    exp_sum,
    min_sum_with_bound,
    sawtooth,
    vaaler_weight,
)
from .harness import (  # noqa: E402
    AuditRow,
    HarnessReport,
    average_error_check,
    bound_audit,
    kronecker_samples,
    limsup_track,
    lower_bound_check,
    min_dist_integral,
    upper_bound_check,
)
from .vaughan import (  # noqa: E402
    VaughanParams,
    b_coeff,
    lambda_exp_sum,
    type_sums,
    vaughan_decompose,
)
