"""Shared numeric kernel: arbitrary-precision special functions (thin
wrappers over mpmath plus the certified Euler-Maclaurin tail), exact number
tables, truncated power series, and polynomial root finding.

High-precision reals/complexes are mpmath ``mpf``/``mpc`` values produced at
an explicit ``prec`` (bits); exact quantities are ``fractions.Fraction``.
"""

from .hp import DEFAULT_PREC, GUARD_BITS, digits_for, guarded, working
from .tables import (
    bernoulli,
    bernoulli_table,
    stirling1,
    stirling1_table,
    zeta_even_rational,
    zeta_neg_int,
)
from .series import TruncatedSeries
from .gamma import incomplete_gamma_upper, log_gamma
from .zeta import (
    direct_zeta_start,
    euler_bernoulli_genfunc_check,
    power_sum_tails,
    riemann_zeta,
    zeta_multiples_direct,
)
from .bell import bell_via_determinant, bell_via_series, complete_bell, hessenberg_det
from .poly import (
    binomial_poly,
    poly_compose_one_minus_s,
    poly_eval,
    poly_negate_var,
    poly_to_mpc,
    poly_trim,
)
from .roots import RootFindingError, poly_roots

__all__ = [
    "DEFAULT_PREC",
    "GUARD_BITS",
    "RootFindingError",
    "TruncatedSeries",
    "bell_via_determinant",
    "bell_via_series",
    "bernoulli",
    "bernoulli_table",
    "binomial_poly",
    "complete_bell",
    "digits_for",
    "direct_zeta_start",
    "euler_bernoulli_genfunc_check",
    "guarded",
    "hessenberg_det",
    "incomplete_gamma_upper",
    "log_gamma",
    "poly_compose_one_minus_s",
    "poly_eval",
    "poly_negate_var",
    "poly_roots",
    "poly_to_mpc",
    "poly_trim",
    "power_sum_tails",
    "riemann_zeta",
    "stirling1",
    "stirling1_table",
    "working",
    "zeta_even_rational",
    "zeta_multiples_direct",
    "zeta_neg_int",
]
