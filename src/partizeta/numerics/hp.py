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

The work budget lives here too: an evaluation whose work grows with its
arguments or precision prices all of it once, in units of ~1 us, and calls
``check_work`` before it evaluates anything.
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

# the most work one evaluation may do, in units of ~1 us: about 4 s on a
# 2-core x86 VM (CPython 3.11, mpmath on its pure-Python backend)
WORK_BUDGET = 2 ** 22


def check_work(units: int, what: str) -> None:
    """ArithmeticError if ``what`` (an evaluation, named for the message)
    needs more than WORK_BUDGET units of work."""
    if units > WORK_BUDGET:
        raise ArithmeticError(f"{what} needs {units} units of work; the work budget is "
                              f"WORK_BUDGET = {WORK_BUDGET}")


@contextmanager
def working(prec: int):
    """Context manager: guarded working precision for ``prec``-bit results,
    holding the context lock."""
    with _LOCK, mp.workprec(prec + GUARD_BITS):
        yield


@contextmanager
def estimating(bits: int = 53):
    """Context manager: ``bits`` bits for a price or an estimate (round the
    operands first, with unary +), holding the context lock."""
    with _LOCK, mp.workprec(bits):
        yield


def guarded(extra: int = 0):
    """Decorator for a function with a ``prec`` parameter: run it at
    prec + GUARD_BITS + extra bits, holding the context lock, and round every
    mpf/mpc of the result (also inside tuples and lists) to ``prec`` bits;
    other values pass through."""

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
