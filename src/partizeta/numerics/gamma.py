"""Log-gamma as a thin wrapper over mpmath's ``loggamma`` that adds the
domain checks this package relies on and the guarded precision policy of
``hp``.
"""

from __future__ import annotations

import mpmath as mp

from .hp import DEFAULT_PREC, guarded


@guarded()
def log_gamma(z, prec: int = DEFAULT_PREC):
    """Principal branch of log Gamma(z) for Re z > 0 (poles rejected).

    Relative error below 2^-(prec-8). Arguments with Re z <= 0 on the real
    axis at nonpositive integers are poles; other Re z <= 0 arguments are out
    of the supported domain (nothing in this package needs them). Real input
    (including complex input with zero imaginary part) gives a real result.
    """
    z = mp.mpmathify(z)
    if mp.im(z) == 0:
        z = mp.re(z)
        if z <= 0 and z == mp.floor(z):
            raise ValueError(f"log_gamma pole at {z}")
    if mp.re(z) <= 0:
        raise ValueError("log_gamma supports Re z > 0 only")
    return mp.loggamma(z)

