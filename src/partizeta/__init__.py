"""partizeta: partition zeta functions, equal-argument multiple zeta values,
p-adic congruence checks, and Manin zeta polynomials, at arbitrary precision
with cross-validated routes for every evaluable formula.
"""

from __future__ import annotations

import pathlib
import zlib

__version__ = "0.1.0"

from . import fixedlen, modular, numerics, padic, partitions, pzeta  # noqa: E402,F401

_build_id_cache = None


def build_id() -> str:
    """Stable identifier of the installed source tree: 12 hex digits from the
    CRC-32 and Adler-32 checksums (not a cryptographic hash) of its modules."""
    global _build_id_cache
    if _build_id_cache is None:
        crc, adler = 0, 1
        for path in sorted(pathlib.Path(__file__).parent.rglob("*.py")):
            for chunk in (path.name.encode(), path.read_bytes()):
                crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
        _build_id_cache = f"{crc:08x}{adler >> 16:04x}"
    return _build_id_cache
