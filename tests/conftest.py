"""Shared fixtures."""

from __future__ import annotations

import mpmath as mp
import pytest


@pytest.fixture
def mp_powers(monkeypatch) -> list[int]:
    """Counts every outermost mpmath power (``**`` and reflected ``**`` of
    mpf and mpc) made while the test runs; the count is the list's one
    entry."""
    count, depth = [0], [0]

    def wrap(orig):
        def power(*args):
            depth[0] += 1
            try:
                out = orig(*args)
            finally:
                depth[0] -= 1
            if out is not NotImplemented and not depth[0]:
                count[0] += 1
            return out
        return power

    for cls in (mp.mpf, mp.mpc):
        for name in ("__pow__", "__rpow__"):
            monkeypatch.setattr(cls, name, wrap(getattr(cls, name)))
    return count


@pytest.fixture
def mp_zeta(monkeypatch) -> list[int]:
    """Counts every mpmath ``zeta`` call (``mp.zeta``, the Hurwitz form
    included) made while the test runs; the count is the list's one entry."""
    count = [0]
    zeta = mp.zeta

    def counted(*args, **kwargs):
        count[0] += 1
        return zeta(*args, **kwargs)

    monkeypatch.setattr(mp, "zeta", counted)
    return count


@pytest.fixture
def mp_polyval(monkeypatch) -> list[int]:
    """Counts every ``mp.polyval`` call made while the test runs: mpmath's
    ``polyroots`` makes one per root a Durand-Kerner sweep, and the package's
    own ``poly_eval`` does not go through it. The count is the list's one
    entry."""
    count = [0]
    polyval = mp.mp.polyval

    def counted(*args, **kwargs):
        count[0] += 1
        return polyval(*args, **kwargs)

    monkeypatch.setattr(mp.mp, "polyval", counted)
    return count


@pytest.fixture
def mp_atan(monkeypatch) -> list[int]:
    """Counts every ``mp.atan`` call made while the test runs; the count is
    the list's one entry."""
    count = [0]
    atan = mp.atan

    def counted(*args, **kwargs):
        count[0] += 1
        return atan(*args, **kwargs)

    monkeypatch.setattr(mp, "atan", counted)
    return count
