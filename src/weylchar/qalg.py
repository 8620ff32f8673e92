"""Exact arithmetic in Z[q].

QPoly is a dense integer polynomial in q: an immutable tuple of coefficients
(c_0, c_1, ..., c_deg) with trailing zeros trimmed, so the zero polynomial is
(). A product with a constant operand scales the other one; every product of
two non-constant polynomials uses Kronecker substitution: each operand is
evaluated at q = 2^w as one Python int, the two ints are multiplied once, and
the product's coefficients are read back from its w-bit slots (D. Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 2009). The packing is signed and exact: w is a whole number
of bytes with 2^(w-1) above the bound max|a| * max|b| * min(len a, len b) on
every product coefficient, and a bias of 2^(w-1) in every slot lets negative
coefficients pack and unpack without borrows (see _signed_value and
_signed_coeffs). The bias of each slot width and slot count is built once and
memoised (_bias).

Packed values hold their lowest slot in their lowest bytes, and every slot is
little-endian, on every host: ints go to and from bytes in "little" order,
and a machine-integer array is byteswapped on a big-endian host. This module
is the only one that turns packed values into bytes or shifts them by slots.
The row memo of charformulas takes its q-binomial weights from
_packed_binomial, which runs the Pascal rule on the values at q = 256^width
themselves, and reads its slots back by _unsigned_coeffs. The peel of
decompose_weyl_basis keeps signed values at q = 2^(8w), w from _byte_width,
and moves each memo value to its w by _reslot, byte for byte.
"""

from __future__ import annotations

import functools
import sys
from array import array
from operator import add, index

from .weights import _Value

# slots are little-endian on every host, so a big-endian host byteswaps the
# arrays it packs and unpacks
_BYTESWAP = sys.byteorder == "big"


class IntegralityError(ArithmeticError):
    """Raised when an exact division in Z[q] leaves a remainder."""


def _trim(coeffs):
    """Tuple of a coefficient list with its trailing zeros removed."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


# Signed machine-integer array typecodes by size in bytes, used to move whole
# coefficient tuples in and out of byte strings at C speed.
_SIGNED_TYPECODES = {array(t).itemsize: t for t in "bhiq"}
_ARRAY_WIDTHS = sorted(_SIGNED_TYPECODES)


def _byte_width(bound):
    """The least whole number of bytes w with 2^(8w - 1) > bound >= 0.

    A signed slot of w bytes holds every integer of absolute value <= bound:
    the extra bit is room for the sign.
    """
    return bound.bit_length() // 8 + 1


def _slot_width(bound):
    """Bytes per slot to hold any integer of absolute value <= bound.

    _byte_width rounded up to a machine-integer size where there is one, so
    the slots move through an array.
    """
    need = _byte_width(bound)
    for width in _ARRAY_WIDTHS:
        if width >= need:
            return width
    return need


def _to_slots(coeffs, width):
    """Two's-complement little-endian bytes of the coefficients, width bytes each."""
    typecode = _SIGNED_TYPECODES.get(width)
    if typecode:
        slots = array(typecode, coeffs)
        if _BYTESWAP:
            slots.byteswap()
        return slots.tobytes()
    return b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs])


def _from_slots(data, width):
    """Inverse of _to_slots: the signed integers in consecutive slots."""
    typecode = _SIGNED_TYPECODES.get(width)
    if typecode:
        slots = array(typecode, data)
        if _BYTESWAP:
            slots.byteswap()
        return tuple(slots)
    from_bytes = int.from_bytes
    return tuple(
        [
            from_bytes(data[i : i + width], "little", signed=True)
            for i in range(0, len(data), width)
        ]
    )


def _spread(value, width, wider):
    """Little-endian bytes of value >= 0, each width-byte slot widened to wider.

    The added bytes are zero and are the high bytes of each wider slot, so
    a slot's nonnegative integer is unchanged.
    """
    count = -(-value.bit_length() // (8 * width))
    data = value.to_bytes(count * width, "little")
    if wider == width:
        return data
    out = bytearray(count * wider)
    for j in range(width):
        out[j::wider] = data[j::width]
    return out


def _unsigned_coeffs(value, width):
    """The nonnegative integers in the width-byte slots of value >= 0.

    Slots are padded to the next power-of-two width and read as one array
    when that is a machine-integer size; wider slots are read one by one.
    """
    size = 1 << (width - 1).bit_length()
    typecode = _SIGNED_TYPECODES.get(size)
    if typecode is None:
        data = _spread(value, width, width)
        from_bytes = int.from_bytes
        return tuple(
            [
                from_bytes(data[i : i + width], "little")
                for i in range(0, len(data), width)
            ]
        )
    slots = array(typecode.upper(), _spread(value, width, size))
    if _BYTESWAP:
        slots.byteswap()
    return tuple(slots)


def _reslot(value, width, wider):
    """The value at q = 256^wider of the polynomial that value >= 0 is at 256^width.

    Every coefficient must be nonnegative and below 256^width, wider >= width.
    The slots are moved as bytes: no coefficient is read as an integer.
    """
    if wider == width:
        return value
    return int.from_bytes(_spread(value, width, wider), "little")


@functools.cache
def _bias(width, size):
    """2^(8*width - 1) in each of `size` slots of `width` bytes, memoised."""
    slot = (1 << (8 * width - 1)).to_bytes(width, "little")
    return int.from_bytes(slot * size, "little")


def _signed_value(coeffs, width):
    """Value at q = 2^(8*width) of coefficients below 2^(8*width - 1) in size.

    Flipping the top bit of a two's-complement slot holding c gives
    c + 2^(8*width - 1) >= 0, so XOR with the all-slots bias B and
    subtracting B turns the slots into the exact value.
    """
    bias = _bias(width, len(coeffs))
    return (int.from_bytes(_to_slots(coeffs, width), "little") ^ bias) - bias


def _signed_coeffs(value, width):
    """Inverse of _signed_value: the coefficient tuple, no trailing zeros.

    With every |coefficient| below 2^(8*width - 1), the top nonzero slot is
    slot number |value|.bit_length() // (8*width). Adding the bias B makes
    every slot nonnegative, with no borrow between slots, and XOR with B
    restores two's complement.
    """
    if not value:
        return ()
    size = abs(value).bit_length() // (8 * width) + 1
    bias = _bias(width, size)
    return _from_slots(((value + bias) ^ bias).to_bytes(width * size, "little"), width)


def _mul_kronecker(a, b):
    """Convolution of two nonzero coefficient tuples by one big-int product.

    Slots are w bytes wide with 2^(8w-1) above every |coefficient| involved,
    so the product of the two values at q = 2^(8w) reads back exactly.
    """
    width = _slot_width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    return _signed_coeffs(_signed_value(a, width) * _signed_value(b, width), width)


class QPoly(_Value):
    """Dense polynomial in q with integer coefficients.

    ``coeffs`` is the tuple (c_0, ..., c_deg) with no trailing zeros. The
    constructor takes a dict {exponent: coefficient} or (exponent,
    coefficient) pairs of integers; repeated exponents add up. A float
    exponent or coefficient raises TypeError instead of being truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for k, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
                k, c = index(k), index(c)
                if k < 0:
                    raise ValueError("exponents must be nonnegative")
                if c:
                    data[k] = data.get(k, 0) + c
        dense = [0] * (max(data) + 1 if data else 0)
        for k, c in data.items():
            dense[k] = c
        object.__setattr__(self, "coeffs", _trim(dense))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def q(cls, power=1):
        return cls({power: 1})

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def constant_term(self):
        """Value at q = 0."""
        return self.coeffs[0] if self.coeffs else 0

    def at_one(self):
        """Value at q = 1 (exact integer)."""
        return sum(self.coeffs)

    def coefficient_list(self):
        """Dense [c_0, c_1, ..., c_deg]; empty list for zero."""
        return list(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as the int it equals, as __eq__ requires
        if len(self.coeffs) <= 1:
            return hash(self.constant_term())
        return hash(self.coeffs)

    def __neg__(self):
        return _wrap(tuple([-c for c in self.coeffs]))

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(a) > len(b):
            return _wrap(tuple(map(add, a, b)) + a[len(b) :])
        return _wrap(_trim(list(map(add, a, b))))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return QPoly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = QPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1:
            return _wrap(_mul_kronecker(a, b))
        if b == (1,):
            return self if a is self.coeffs else other
        return _wrap(tuple([c * b[0] for c in a]) if b else ())

    __rmul__ = __mul__

    def divide_exact(self, divisor):
        """Exact quotient self / divisor in Z[q]; IntegralityError otherwise."""
        if isinstance(divisor, int):
            divisor = QPoly.const(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dd = divisor.degree()
        dc = divisor.coeffs[dd]
        lower = [(k, c) for k, c in enumerate(divisor.coeffs[:dd]) if c]
        quot = [0] * max(len(rem) - dd, 0)
        for shift in range(len(rem) - 1 - dd, -1, -1):
            lead, r = divmod(rem[shift + dd], dc)
            if r:
                raise IntegralityError("leading coefficient not divisible")
            if lead:
                quot[shift] = lead
                for k, c in lower:
                    rem[k + shift] -= lead * c
        if any(rem[:dd]):
            raise IntegralityError("nonzero remainder in exact division")
        return _wrap(_trim(quot))

    def __str__(self):
        """Canonical ascending rendering, e.g. '1 + 2q^2 - q^3'."""
        if not self.coeffs:
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else "q^%d" % k
                body = var if mag == 1 else "%d%s" % (mag, var)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "QPoly(%r)" % ({k: c for k, c in enumerate(self.coeffs) if c},)


_new_object = object.__new__
_set_coeffs = QPoly.coeffs.__set__


def _wrap(coeffs):
    """QPoly around an already trimmed coefficient tuple, without re-validation.

    Results of internal arithmetic come through here; only the public
    constructor validates and densifies its input.
    """
    poly = _new_object(QPoly)
    _set_coeffs(poly, coeffs)
    return poly


def one_minus_q(k):
    """1 - q^k (the k = 0 factor is identically zero)."""
    if k == 0:
        return QPoly.zero()
    return QPoly({0: 1, k: -1})


# typed, as is q_pochhammer's: a float equal to a cached int misses, and raises
@functools.lru_cache(maxsize=None, typed=True)
def q_binomial(n, r):
    """Gaussian binomial [n r]_q via the Pascal recursion.

    Zero unless n, r, n - r are all nonnegative.
    """
    n, r = index(n), index(r)
    if r < 0 or n < 0 or n - r < 0:
        return QPoly.zero()
    if r == 0 or r == n:
        return QPoly.one()
    return q_binomial(n - 1, r - 1) + grade_shift(q_binomial(n - 1, r), r)


@functools.lru_cache(maxsize=None)
def _packed_binomial(n, r, width):
    """[n r]_q evaluated at q = 256^width, for 0 <= r <= n.

    Evaluation at an integer is a ring map, so the Pascal rule of q_binomial
    holds for the values themselves, with q^r a shift by r slots, and each
    value is exact whatever its slots hold. No QPoly is built. The recursion
    is n levels deep, as q_binomial's is.
    """
    if r == 0 or r == n:
        return 1
    return _packed_binomial(n - 1, r - 1, width) + (
        _packed_binomial(n - 1, r, width) << 8 * width * r
    )


@functools.lru_cache(maxsize=None, typed=True)
def q_pochhammer(m):
    """(q; q)_m = prod_{i=1}^m (1 - q^i)."""
    m = index(m)
    if m < 0:
        raise ValueError("q-Pochhammer index must be nonnegative")
    if m == 0:
        return QPoly.one()
    return q_pochhammer(m - 1) * one_minus_q(m)


def grade_shift(p, s):
    """Multiply by q^s (shift all grades up by s >= 0)."""
    if s < 0:
        raise ValueError("grade shift must be nonnegative")
    if not isinstance(p, QPoly):
        raise TypeError("grade_shift expects a QPoly")
    return _wrap((0,) * s + p.coeffs if p.coeffs else ())
