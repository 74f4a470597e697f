"""Shared numeric kernel: what mpmath does not already give. The precision
policy and work budget, the certified Euler-Maclaurin tail and the zeta
values built on it, the exact Bernoulli table and a row of Stirling numbers
on demand, the two complete Bell polynomial routes, and polynomial root
finding with a residual contract. Log-gamma is mpmath's ``loggamma``,
called directly by the routes that need it.

High-precision reals/complexes are mpmath ``mpf``/``mpc`` values produced at
an explicit ``prec`` (bits); exact quantities are ``fractions.Fraction``.
"""

from .hp import DEFAULT_PREC, GUARD_BITS, WORK_BUDGET, check_work, digits_for, guarded, working
from .tables import (
    bernoulli,
    bernoulli_table,
    bernoulli_work,
    stirling1_row,
    zeta_even_rational,
    zeta_neg_int,
)
from .zeta import (
    direct_zeta_start,
    euler_bernoulli_genfunc_check,
    power_sum_tails,
    riemann_zeta,
    zeta_multiples_direct,
)
from .bell import bell_via_determinant, bell_via_series
from .poly import (
    falling_poly,
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
    "WORK_BUDGET",
    "bell_via_determinant",
    "bell_via_series",
    "bernoulli",
    "bernoulli_table",
    "bernoulli_work",
    "check_work",
    "digits_for",
    "direct_zeta_start",
    "euler_bernoulli_genfunc_check",
    "falling_poly",
    "guarded",
    "poly_compose_one_minus_s",
    "poly_eval",
    "poly_negate_var",
    "poly_roots",
    "poly_to_mpc",
    "poly_trim",
    "power_sum_tails",
    "riemann_zeta",
    "stirling1_row",
    "working",
    "zeta_even_rational",
    "zeta_multiples_direct",
    "zeta_neg_int",
]
