"""Exact rational scalars.

Everything symbolic in this package runs on exact rationals.  gmpy2's mpq is
used when available (markedly faster in the inner polynomial loops), with
fractions.Fraction as a pure-stdlib fallback.  Both types share the parts of
the numeric-tower API we rely on: arithmetic, comparison, hashing,
``.numerator``/``.denominator`` and ``str()`` of the form ``"p/q"``.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)
# the scalar type in use, "gmpy2.mpq" or "fractions.Fraction"
BACKEND = "%s.%s" % (Rat.__module__, Rat.__name__)


def rat(value, den=None) -> Rat:
    """Coerce ``value`` (int, ``"p/q"`` string, Fraction, mpq) to a Rat.

    ``rat(p, q)`` builds p/q.  Floats are rejected: the package is exact and
    a float argument is almost always an upstream mistake.
    """
    if den is not None:
        return Rat(value) / Rat(den)
    if type(value) is Rat:
        return value  # immutable, so no copy is needed
    if isinstance(value, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % value)
    if isinstance(value, str):
        value = value.strip()
    return Rat(value)


def rat_str(q) -> str:
    """Render exactly, round-trippable through rat()."""
    return str(q)
