"""Exact rational helpers shared across the toolkit.

Every quantity that enters a feasibility decision (weights, path lengths,
capacities, bandwidths, model coefficients) is a `fractions.Fraction`, or
is decided on integer ratios of one, so strict inequalities are decided
exactly instead of at a float tolerance.
`parse_number` is the one reader of numbers: every number read from an
instance, weights or LP file, or from a command-line flag, passes through
it.  The JSON files (instances, weights, solutions) are written and read
here too, so numbers cross the file boundary exactly.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# The most digits Python reads or writes as one integer (its default
# `sys.get_int_max_str_digits()`), and so the largest decimal exponent read:
# building 10**e takes seconds at e = 10**7, and never ends a few digits on.
# No numerator or denominator read has more, so every number read can be
# written back.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_number(
    value: object, where: str = "value", error: type[Exception] = ValueError
) -> Fraction:
    """The one reader of numbers: an int, Fraction or text ('12', '0.5',
    '2.5e-3', '1/3') as an exact Fraction.

    Anything else raises `error`, with a message that starts with `where`
    (unless it is empty) and shows at most a short prefix of the value:
    text as a string literal, a JSON value as JSON text.  Text with a
    decimal exponent above `MAX_DIGITS` is refused before any power of ten
    is built, and text or an int whose numerator or denominator would have
    more than `MAX_DIGITS` digits is refused too, so that every number read
    can be written back.  A Fraction is taken as it is: every Fraction read
    from a file has passed here as text.  Floats are accepted only for
    programmatic convenience and are read through their shortest decimal
    repr, so `0.1` means exactly 1/10.  A JSON number that `read_json`
    refused is refused here as its text would be, under `where`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, _Refused):
        value = value.text
    number = None
    if isinstance(value, str):
        # Digits alone, as in every JSON integer, have no exponent, and int()
        # reads them in half the time of Fraction's text parser; it refuses
        # more than MAX_DIGITS of them itself.
        plain = value.isdecimal()
        exponent = None if plain else _EXPONENT.search(value)
        if exponent and float(exponent[1]) > MAX_DIGITS:
            why = f"decimal exponent outside -{MAX_DIGITS}..{MAX_DIGITS}, the digit limit:"
        else:
            try:
                if plain:
                    return Fraction(int(value))
                number = Fraction(value)
            except (ValueError, ZeroDivisionError):
                too_long = any(len(run) > MAX_DIGITS for run in re.findall(r"\d+", value))
                why = f"more than {MAX_DIGITS} digits:" if too_long else "not a number:"
    elif isinstance(value, int) and not isinstance(value, bool):
        number = Fraction(value)
    elif isinstance(value, float) and math.isfinite(value):
        return Fraction(str(value))  # 17 digits at most, exponent within -324..308
    else:
        why = "not a finite number:" if isinstance(value, float) else "expected a number, got"
    if number is not None:
        numerator, denominator = number.as_integer_ratio()
        if -_TOO_LONG < numerator < _TOO_LONG and denominator < _TOO_LONG:
            return number
        why = f"more than {MAX_DIGITS} digits"
        if not isinstance(value, str):  # a number too long to show
            raise error(f"{where}: {why}" if where else why)
        why += ":"
    shown = repr(value) if isinstance(value, str) else _inline(value, _shown_leaf)
    why += f" {shown if len(shown) <= 24 else shown[:20] + '...'}"
    raise error(f"{where}: {why}" if where else why)


def _shown_leaf(value: object) -> str:
    """A scalar of a refused value as JSON text: exact decimal numbers,
    true/false and NaN/Infinity as the JSON file spells them, and a value
    JSON cannot hold as Python shows it."""
    if isinstance(value, (bool, float)):
        return json.dumps(value)
    if isinstance(value, (int, Fraction)):
        return format_number(value)
    return repr(value)


def format_number(x: Fraction) -> str:
    """Render a Fraction as a minimal exact decimal ('3', '0.5', '-2.25').

    Values whose denominator contains primes other than 2 and 5 have no finite
    decimal expansion and fall back to the exact 'p/q' form, and so do values
    whose decimal has more than `MAX_DIGITS` digits, which `parse_number`
    would refuse.
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
    scaled = abs(x.numerator) * 10**digits // x.denominator
    if digits >= MAX_DIGITS or scaled >= _TOO_LONG:  # more digits than are read
        return f"{x.numerator}/{x.denominator}"
    body = str(scaled).rjust(digits + 1, "0")
    head, tail = body[:-digits], body[-digits:]
    tail = tail.rstrip("0")
    sign = "-" if x < 0 else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def json_number(x: Fraction) -> str:
    """A number as JSON text: a bare decimal, or a quoted 'p/q' string."""
    s = format_number(x)
    return json.dumps(s) if "/" in s else s


# ---------------------------------------------------------------------------
# JSON file I/O: the one writer and the one reader of instance, weights and
# solution files.


def write_json(value: object) -> str:
    """Canonical JSON text of nested dicts, lists, strings, numbers and None.

    A top-level object has one member per line and an array of objects one
    object per line; everything else goes on one line.  Every number is
    written by `json_number`, so the bytes are exact and deterministic.
    """
    if isinstance(value, dict):
        rows = [f"  {json.dumps(k)}: {_block(v, '  ')}" for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n}\n"
    return _block(value, "") + "\n"


def _block(value: object, indent: str) -> str:
    if isinstance(value, (list, tuple)) and value and all(isinstance(v, dict) for v in value):
        rows = [f"{indent}  {_inline(v)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{indent}]"
    return _inline(value)


def _inline(value: object, leaf=json_number) -> str:
    """One line of JSON text, each scalar other than a string or None
    written by `leaf`."""
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ", ".join([f"{json.dumps(k)}: {_inline(v, leaf)}" for k, v in value.items()]) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([_inline(v, leaf) for v in value]) + "]"
    return "null" if value is None else leaf(value)


class _Refused:
    """A JSON number `parse_number` refused, kept as its text, so that the
    refusal names the field that reads it, as it does for a string."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:  # as the file spells it, where a refusal shows it
        return self.text


def read_json(text: str, error: type[Exception]) -> object:
    """Parse JSON text, reading every number through `parse_number`, so as
    an exact Fraction; bad JSON, or JSON nested deeper than the parser's
    recursion limit, raises `error`.  A number `parse_number` refuses is
    refused when its field is read through `parse_number`, with the field's
    name and the message its text as a JSON string would get."""

    def number(text: str) -> Fraction | _Refused:
        try:
            return parse_number(text)
        except ValueError:
            return _Refused(text)

    try:
        return json.loads(text, parse_float=number, parse_int=number)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error("not valid JSON: nested too deeply to parse") from exc


def read_records(
    items: object,
    where: str,
    fields: tuple[str, str, str],
    error: type[Exception],
) -> list[tuple[str, str, Fraction]]:
    """Read an array of objects, each with two string fields and a number.

    A malformed record raises `error` naming its location, e.g.
    `links[0]: missing field 'tail'` or `links[0].capacity: not a number`.
    """
    if not isinstance(items, list):
        raise error(f"{where}: must be an array")
    first, second, number = fields
    records = []
    for i, item in enumerate(items):
        at = f"{where}[{i}]"
        if not isinstance(item, dict):
            raise error(f"{at}: must be an object")
        for name in fields:
            if name not in item:
                raise error(f"{at}: missing field {name!r}")
        if not isinstance(item[first], str) or not isinstance(item[second], str):
            raise error(f"{at}: {first} and {second} must be strings")
        value = parse_number(item[number], f"{at}.{number}", error)
        records.append((item[first], item[second], value))
    return records


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
    """Whether value is a grid point w_min + n*step (n >= 0) not above w_max,
    decided on integer ratios: with value p/q, w_min a/b, step c/d and w_max
    e/f, value - w_min is (pb - aq)/qb, so n = (pb - aq)d/qbc."""
    p, q = value.as_integer_ratio()
    a, b = w_min.as_integer_ratio()
    c, d = step.as_integer_ratio()
    e, f = w_max.as_integer_ratio()
    n = (p * b - a * q) * d
    return n >= 0 and p * f <= e * q and n % (q * b * c) == 0


def snap_to_grid(value: Fraction, w_min: Fraction, w_max: Fraction, step: Fraction) -> Fraction:
    """Nearest admissible grid point; halves round up; result clamped in bounds."""
    q = (Fraction(value) - w_min) / step
    n = math.floor(q + Fraction(1, 2))
    n = max(0, min(n, grid_size(w_min, w_max, step) - 1))
    return w_min + n * step
