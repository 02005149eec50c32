"""Exact rational helpers shared across the toolkit.

Every quantity that enters a feasibility decision (weights, path lengths,
capacities, bandwidths, model coefficients) is a `fractions.Fraction`, so
strict inequalities are decided exactly instead of at a float tolerance.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def parse_number(value: object, where: str = "value") -> Fraction:
    """Convert a scalar (int, Fraction, decimal string, 'p/q' string) to Fraction.

    Floats are accepted only for programmatic convenience and are read through
    their shortest decimal repr, so `0.1` means exactly 1/10.
    """
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: not a number: {value!r}") from exc
    raise ValueError(f"{where}: expected a number, got {value!r}")


def format_number(x: Fraction) -> str:
    """Render a Fraction as a minimal exact decimal ('3', '0.5', '-2.25').

    Values whose denominator contains primes other than 2 and 5 have no finite
    decimal expansion and fall back to the exact 'p/q' form.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(twos, fives)
    scaled = x * 10**digits
    body = str(abs(int(scaled))).rjust(digits + 1, "0")
    head, tail = body[:-digits], body[-digits:]
    tail = tail.rstrip("0")
    sign = "-" if x < 0 else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def json_number(x: Fraction) -> str:
    """A number as JSON text: a bare decimal, or a quoted 'p/q' string."""
    s = format_number(x)
    return json.dumps(s) if "/" in s else s


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Greatest common divisor of two rationals (gcd of the generated lattice)."""
    a, b = abs(Fraction(a)), abs(Fraction(b))
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def grid_size(w_min: Fraction, w_max: Fraction, step: Fraction) -> int:
    """Number of admissible grid points w_min + n*step inside [w_min, w_max]."""
    if step <= 0 or w_max < w_min:
        return 0
    return int((w_max - w_min) / step) + 1


def grid_points(w_min: Fraction, w_max: Fraction, step: Fraction) -> list[Fraction]:
    return [w_min + n * step for n in range(grid_size(w_min, w_max, step))]


def on_grid(value: Fraction, w_min: Fraction, w_max: Fraction, step: Fraction) -> bool:
    if value < w_min or value > w_max:
        return False
    return ((value - w_min) / step).denominator == 1


def snap_to_grid(value: Fraction, w_min: Fraction, w_max: Fraction, step: Fraction) -> Fraction:
    """Nearest admissible grid point; halves round up; result clamped in bounds."""
    q = (Fraction(value) - w_min) / step
    n = math.floor(q + Fraction(1, 2))
    n = max(0, min(n, grid_size(w_min, w_max, step) - 1))
    return w_min + n * step
