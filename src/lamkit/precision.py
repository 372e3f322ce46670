"""Working-precision control for the geometric kernel.

All planar geometry is carried out with mpmath arbitrary-precision reals.
Vertex coordinates involve cos/sin of pi/(2g+1), so no fixed machine format
is exact; instead every constructor records the binary precision it was
built at and every geometric operation re-enters that precision.  Twist-word
derivatives (``affine.Mat2``) never round: every mpf is a dyadic rational.

The default is 128 bits, overridable with LAMKIT_PRECISION (bits) or per call.
"""

import math
import os

import mpmath

from .errors import ParameterError

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
PRECISION_ENV_VAR = "LAMKIT_PRECISION"

# Relative tolerance of the documented geometric predicates (equality of
# moduli, tiling identities, ...).  Deliberately far looser than the
# working precision so that roundoff never masquerades as geometry.
DEFAULT_TOLERANCE = 1e-12


def resolve_precision(bits=None):
    """Return the working precision in bits, honoring the environment override."""
    if bits is None:
        bits = os.environ.get(PRECISION_ENV_VAR) or DEFAULT_PRECISION_BITS
    try:
        bits = int(bits)
    except (TypeError, ValueError):
        raise ParameterError(f"working precision must be an integer, got {bits!r}") from None
    if bits < MIN_PRECISION_BITS:
        raise ParameterError(
            f"working precision must be at least {MIN_PRECISION_BITS} bits, got {bits}"
        )
    return bits


def merge_tolerance(bits):
    """Absolute slack used to decide that two traced coordinates coincide.

    Half the working precision: hugely below any genuine geometric gap of
    the surfaces built here, hugely above accumulated roundoff.
    """
    return mpmath.mpf(2) ** (-(bits // 2))


def value_precision(*values):
    """Enough working bits to combine the given values without extra rounding.

    Inspects mpmath mantissa widths (at least 53); plain ints/Fractions
    contribute nothing.
    """
    bits = 53
    for v in values:
        tup = getattr(v, "_mpf_", None)
        if tup is not None:
            bits = max(bits, int(tup[3]))
    return bits + 16


def mpf_str(x):
    """Decimal string that reads back to the same value at the working precision.

    ceil(prec * log10 2) + 1 significant digits always round-trip; mpmath's
    dps + 2 is kept where it is larger, so common precisions print as before.
    """
    prec = mpmath.mp.prec
    digits = max(int(mpmath.mp.dps) + 2, math.ceil(prec * math.log10(2)) + 1)
    return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=True, min_fixed=1, max_fixed=0)


def parse_mpf(s):
    """Parse a decimal string produced by :func:`mpf_str` at current precision."""
    return mpmath.mpf(s)
