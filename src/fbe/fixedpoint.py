"""Two's-complement fixed-point arithmetic with explicit widths.

Every operation here is width-preserving, wraps modulo 2**width, and
truncates toward zero on the magnitude.  That discipline matches what the
reversible arithmetic blocks compute bit for bit, so this module doubles
as the classical reference for the circuit layer.  The raw integer forms
of the non-restoring square root and division loops live here as well,
as exact references: acceptance criterion 6 and tests/test_blocks.py
compare the outputs of the gate blocks against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class FixedPointError(Exception):
    pass


class WidthMismatch(FixedPointError):
    """Operands disagree on width, frac bits, or signedness."""


class FixedOverflow(FixedPointError):
    """Checked operation produced a value outside the representable range."""


class DomainError(FixedPointError):
    """Input outside the mathematical domain of the operation."""


def _shown(value) -> str:
    """value as an error message quotes it: past 40 characters, its
    ends around the count, so a huge input still reads in one line."""
    s = str(value)
    return s if len(s) <= 40 else f"{s[:12]}...{s[-12:]} ({len(s)} characters)"


@dataclass(frozen=True)
class Layout:
    """Register shape: int_bits includes the sign bit when signed."""

    int_bits: int
    frac_bits: int
    signed: bool = False

    @property
    def width(self) -> int:
        return self.int_bits + self.frac_bits


@dataclass(frozen=True)
class FixedPoint:
    raw: int
    int_bits: int
    frac_bits: int
    signed: bool = False

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 0:
            raise WidthMismatch("negative field width")
        if self.width < 1:
            raise WidthMismatch("zero-width value")
        if self.signed and self.int_bits < 1:
            raise WidthMismatch("signed layout needs the sign bit inside int_bits")
        if not 0 <= self.raw < (1 << self.width):
            raise WidthMismatch(f"raw {self.raw} outside {self.width} bits")

    @property
    def width(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def layout(self) -> Layout:
        return Layout(self.int_bits, self.frac_bits, self.signed)

    @property
    def sign_bit(self) -> int:
        return (self.raw >> (self.width - 1)) & 1 if self.signed else 0

    @property
    def value(self) -> Fraction:
        v = self.raw
        if self.signed and v >> (self.width - 1):
            v -= 1 << self.width
        return Fraction(v, 1 << self.frac_bits)

    @property
    def ulp(self) -> Fraction:
        return Fraction(1, 1 << self.frac_bits)

    def __repr__(self):
        kind = "s" if self.signed else "u"
        return f"FixedPoint({render(self)!r}, {kind})"


def make(raw: int, layout: Layout) -> FixedPoint:
    return FixedPoint(raw % (1 << layout.width), layout.int_bits, layout.frac_bits, layout.signed)


def from_value(value: Rational, layout: Layout) -> FixedPoint:
    """Encode a rational; raises unless representable."""
    return make(_raw_of(Fraction(value), layout), layout)


def _raw_of(v: Rational, layout: Layout) -> int:
    """from_value's raw pattern, checks and errors for v, an int or a Fraction."""
    if (1 << layout.frac_bits) % v.denominator:
        raise DomainError(f"{_shown(v)} not representable with {layout.frac_bits} frac bits")
    t = _trunc_raw(v, layout.frac_bits)
    lo = -(1 << (layout.width - 1)) if layout.signed else 0
    if not lo <= t < lo + (1 << layout.width):
        raise FixedOverflow(f"{_shown(v)} outside range of {layout}")
    return t % (1 << layout.width)


def _check_same(a: FixedPoint, b: FixedPoint):
    if (a.int_bits, a.frac_bits, a.signed) != (b.int_bits, b.frac_bits, b.signed):
        raise WidthMismatch(f"{a.layout} vs {b.layout}")


def add(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    """Sum modulo 2**width; the carry out of the top bit is dropped."""
    _check_same(a, b)
    return make(a.raw + b.raw, a.layout)


def negate(a: FixedPoint) -> FixedPoint:
    """Two's-complement negation.  The most negative value maps to itself."""
    if not a.signed:
        raise DomainError("negate needs a signed layout")
    return make(-a.raw, a.layout)


def absolute(a: FixedPoint) -> FixedPoint:
    return negate(a) if a.sign_bit else a


def shift(a: FixedPoint, k: int) -> FixedPoint:
    """Logical shift by k (positive = left).  Bits leaving the register are
    dropped and vacated positions fill with zero, signed or not."""
    if k >= 0:
        return make(a.raw << k, a.layout)
    return make(a.raw >> (-k), a.layout)


def _trunc_raw(value: Rational, frac_bits: int) -> int:
    # magnitude truncation toward zero at frac_bits, on the integer ratio
    t = (abs(value.numerator) << frac_bits) // value.denominator
    return -t if value.numerator < 0 else t


def square(a: FixedPoint) -> FixedPoint:
    """a*a truncated to the same layout.  Raises FixedOverflow when the
    integer part of the product does not fit."""
    t = _trunc_raw(a.value * a.value, a.frac_bits)
    hi = (1 << (a.width - 1)) if a.signed else (1 << a.width)
    if t >= hi:
        raise FixedOverflow(f"square of {render(a)} needs more than {a.int_bits} int bits")
    return make(t, a.layout)


def nonrestoring_isqrt(n: int) -> tuple[int, int]:
    """Integer square root by the non-restoring digit loop.

    Returns (root, remainder) with root**2 + remainder == n and
    root == floor(sqrt(n)).  The loop works in a fixed frame: u starts at
    n, each stage adds or subtracts the partial-root operand, and a final
    correction leaves the true remainder.  It is a reference for the
    root, not a replay of the gate walk, which takes one add per stage,
    runs in windows and skips the final correction.
    """
    if n < 0:
        raise DomainError("negative radicand")
    k = (n.bit_length() + 1) // 2  # root fits k bits
    if k == 0:
        return 0, 0
    u = n
    root = 0
    prev = 1  # virtual bit above the msb
    for i in range(k - 1, -1, -1):
        run = (root >> (i + 1)) << (2 * i + 2)  # sum of r_t * 2^(t+i+1) for t > i
        if prev:
            u -= run + (1 << (2 * i))
        else:
            u += run + 3 * (1 << (2 * i))
        prev = 1 if u >= 0 else 0
        root |= prev << i
    if not root & 1:
        u += (root << 1) | 1
    return root, u


def nonrestoring_div(n: int, d: int, qbits: int) -> tuple[int, int]:
    """Unsigned division by the non-restoring loop.

    Returns (quotient, remainder) = (n // d, n % d).  Caller guarantees
    d > 0 and n < d << qbits so the quotient fits qbits bits.
    """
    if d <= 0:
        raise DomainError("divisor must be positive")
    if n >= d << qbits:
        raise FixedOverflow(f"quotient of {n}/{d} does not fit {qbits} bits")
    r = n
    q = 0
    prev = 1
    for j in range(qbits - 1, -1, -1):
        if prev:
            r -= d << j
        else:
            r += d << j
        prev = 1 if r >= 0 else 0
        q |= prev << j
    if not q & 1:
        r += d
    return q, r


def sqrt_nonrestoring(a: FixedPoint) -> FixedPoint:
    """Square root truncated to the input layout.

    The radicand is extended with frac_bits zero bits so the root comes
    back at the same scale: root_raw = isqrt(raw << frac_bits).
    """
    if a.signed and a.sign_bit:
        raise DomainError(f"sqrt of negative {render(a)}")
    root, _ = nonrestoring_isqrt(a.raw << a.frac_bits)
    return make(root, a.layout)


def reciprocal_nonrestoring(a: FixedPoint) -> FixedPoint:
    """1/a truncated toward zero to the input layout.

    Division runs on the magnitude; the sign is reapplied afterwards.
    Raises ZeroDivisionError on zero and FixedOverflow when 1/a does not
    fit the integer field.
    """
    if a.raw == 0:
        raise ZeroDivisionError("reciprocal of zero")
    w, q = a.width, a.frac_bits
    mag = (1 << w) - a.raw if (a.signed and a.sign_bit) else a.raw
    quot, _ = nonrestoring_div(1 << (2 * q), mag, 2 * q + 1)
    hi = (1 << (w - 1)) if a.signed else (1 << w)
    if quot >= hi:
        raise FixedOverflow(f"1/{render(a)} needs more than {a.int_bits} int bits")
    if a.signed and a.sign_bit:
        quot = -quot
    return make(quot, a.layout)


def render(a: FixedPoint) -> str:
    """Bit pattern msb-first with a point between the fields, e.g. 01.10."""
    bits = format(a.raw, f"0{a.width}b")
    if a.frac_bits == 0:
        return bits
    if a.int_bits == 0:
        return "." + bits
    return bits[: a.int_bits] + "." + bits[a.int_bits :]


def parse(text: str, signed: bool = False) -> FixedPoint:
    """Inverse of render; field widths come from the glyph counts."""
    t = text.strip()
    if t.count(".") > 1 or any(c not in "01." for c in t):
        raise DomainError(f"bad fixed-point literal {_shown(repr(text))}")
    if "." in t:
        int_part, frac_part = t.split(".")
    else:
        int_part, frac_part = t, ""
    digits = int_part + frac_part
    if not digits:
        raise DomainError(f"bad fixed-point literal {_shown(repr(text))}")
    return FixedPoint(int(digits, 2), len(int_part), len(frac_part), signed)
