"""Exact rational scalars shared by every algebra in the package.

The scalar ring is the rationals.  Values are plain ``int`` or
``fractions.Fraction``; both are arbitrary precision and mix freely in
arithmetic, so no wrapper type is needed.  ``Fraction`` already enforces
the canonical form (positive denominator, lowest terms) and never rounds.
Whole numbers are collapsed back to ``int`` at construction boundaries so
the hot loops stay on machine integers.  The one text form is an optional
sign and ASCII ``p`` or ``p/q`` (``RATIONAL``, which element literals reuse).
"""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL = r"[0-9]+(?:/[0-9]+)?"  # p or p/q in ASCII digits; element literals reuse it
_SIGNED_RATIONAL = re.compile(rf"\s*[+-]?{RATIONAL}\s*")


def simplify(value):
    """Collapse a Fraction with denominator 1 or an int subclass (bool) to an
    int; any type but ``int`` or ``Fraction`` (a float, say) raises ``TypeError``."""
    if type(value) is int:  # the common case, tested first
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if not isinstance(value, int):
        raise TypeError(f"scalars must be int or Fraction, not {type(value).__name__}")
    return int(value)


def parse_rational(text):
    """Parse the textual form ``p`` or ``p/q`` (ASCII digits, an optional sign,
    spaces around); anything else or a zero ``q`` raises ``ValueError``."""
    if not _SIGNED_RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational p or p/q: {text!r}")
    try:
        return simplify(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value):
    """Render ``p/q``, omitting the denominator when it is 1."""
    return str(simplify(value))
