"""Precision policy for the high-precision kernel.

Values are mpmath ``mpf``/``mpc``. Every public evaluation routine takes an
explicit ``prec`` (binary precision in bits, default 256), computes under a
guarded working precision and rounds its result back to ``prec``. The
``guarded`` decorator owns that policy; ``working`` is the same guarded
context for a block of code.

mpmath keeps one process-global context, so both hold one re-entrant lock
while they set it: concurrent calls from several threads are serialized and
each sees its own precision, and nested calls re-enter. Code outside this
package that changes ``mp.prec`` while a thread is inside a kernel is not
covered.
"""

from __future__ import annotations

import functools
import inspect
import threading
from contextlib import contextmanager

import mpmath as mp

DEFAULT_PREC = 256
GUARD_BITS = 40

_LOCK = threading.RLock()


@contextmanager
def working(prec: int, extra: int = 0):
    """Context manager: guarded working precision for ``prec``-bit results,
    holding the context lock."""
    with _LOCK, mp.workprec(prec + GUARD_BITS + extra):
        yield


def guarded(extra: int = 0):
    """Decorator for a function with a ``prec`` parameter: run it under
    ``working(prec, extra)`` and round every mpf/mpc of the result (also
    inside tuples and lists) to ``prec`` bits; other values pass through."""

    def decorate(fn):
        params = list(inspect.signature(fn).parameters.values())
        pos = [p.name for p in params].index("prec")
        default = params[pos].default

        @functools.wraps(fn)
        def run(*args, **kwargs):
            prec = args[pos] if len(args) > pos else kwargs.get("prec", default)
            with _LOCK:
                with mp.workprec(prec + GUARD_BITS + extra):
                    out = fn(*args, **kwargs)
                with mp.workprec(prec):
                    return _round(out)

        return run

    return decorate


def _round(x):
    if isinstance(x, (mp.mpf, mp.mpc)):
        return +x
    if isinstance(x, (tuple, list)):
        return type(x)(_round(v) for v in x)
    return x


def digits_for(prec: int) -> int:
    """Decimal digits that faithfully represent a prec-bit value."""
    return int(prec * 0.301) + 1
