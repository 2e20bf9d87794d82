"""Exact rational scalars shared by every algebra in the package.

The scalar ring is the rationals.  Values are plain ``int`` or
``fractions.Fraction``; both are arbitrary precision and mix freely in
arithmetic, so no wrapper type is needed.  ``Fraction`` already enforces
the canonical form (positive denominator, lowest terms) and never rounds.
Whole numbers are collapsed back to ``int`` at construction boundaries so
the hot loops stay on machine integers.
"""

from __future__ import annotations

from fractions import Fraction


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
    """Parse the textual form ``p`` or ``p/q``; a malformed text or a zero
    ``q`` raises ``ValueError``."""
    try:
        return simplify(Fraction(str(text).strip()))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value):
    """Render ``p/q``, omitting the denominator when it is 1."""
    return str(simplify(value))
