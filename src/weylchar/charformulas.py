"""Graded characters: q-Whittaker functions, Pieri rules, closed-form tensor
and truncation identities, and decomposition into the Weyl-character basis.

A GradedCharacter is a Z[q]-linear combination of monomials in n+1 variables
x_1, ..., x_{n+1}, keyed by exponent tuples (gl-style). The sl-character is
read off by ignoring overall determinant factors.

Graded Weyl characters are q-Whittaker functions P_lam(x; q, 0), built by the
branching rule (Macdonald, *Symmetric Functions and Hall Polynomials*, 2nd
ed., Ch. VI §7): strip the last variable, sum over the interlacing rows one
shorter with per-row q-binomial weights, and memoise on row tuples. The
row memo keeps only weakly decreasing keys: P_lam is symmetric, so its
other terms permute these, and the peel of decompose_weyl_basis reads its
leaders from the same memo. A dominant key of P_upper ends at most at the
mean of upper, and the balanced partition of |upper| ends at its integer
part, so only the interlacing rows whose stripped exponent is at most the
mean of the row can add a dominant key, and only those are walked. The
recursion ends at two-part rows in closed form: P_(a,b) is the sum of the
q-binomials [a-b j]_q x_1^(a-j) x_2^(b+j), so each value of a two-part row
is the cached packed binomial itself, shared with every row that reads it.
pop_char and irreducible_char keep their own GT-pattern enumeration, so
the POP route stays an independent check of the branching route; pop_char
multiplies, per pattern, one series per cell of that cell's enumerated
overlays.

The row memo holds each coefficient as one int, its value at q = 256^w: the
Kronecker substitution of QPoly multiplication (D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", 2009),
done once per memo entry instead of once per psi multiply. Its psi products
and sums are int * and +. Every coefficient of P_row has nonnegative
coefficients adding up to at most dim W(row), so w, the byte length of
dim W(row), leaves no carry between the w-byte slots. qalg owns the slots:
_packed_binomial builds each q-binomial weight at q = 256^w by the Pascal
rule on the packed ints, so building a character calls no q_binomial and
builds no QPoly binomial, and _unsigned_coeffs unpacks values to QPoly at
each character build; every API, result and character cache holds QPoly.
The peel of decompose_weyl_basis unpacks no memo value: it keeps its
remainder packed as well (see there).

Every character the paper handles is symmetric, and so is every
GradedCharacter: its dominant terms, a Z[q]-combination of monomial
symmetric functions (Macdonald, Ch. I §2), determine it, and they are all
it stores. The constructor runs _dominant_terms, the one symmetry test and
split, and refuses anything else; _from_dominant is the one way back.
Every operation, from + and det_twist to products, the closed-form sums
and the peel, maps dominant terms, and two characters are equal exactly
when their dominant terms are. Orbits are counted by _orbit_size and
listed by _orbit only where they are walked: by the `terms` view, which
output reads, and by the product walk.

A product of two characters is a sum of products m_d * m_e of
monomial symmetric functions, m_d the orbit sum of a dominant key d, whose
structure constants come from one walk of the smaller orbit per pair of
dominant keys. The coefficients are packed like the row memo's, but signed,
at q = 2^(8w) with 2^(8w - 1) above N(a) * M(b), N(f) the sum of
|coefficient| over every term of f and M(f) the largest sum of
|coefficient| over one term (see _symmetric_product). The closed-form sums
(_homogeneous_sum), scalar multiples among them, are packed the same way:
each scalar and each dominant coefficient of each summand once, int * and
+ per dominant term, and one unpack per key of the sum.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

from .gtpop import (
    bounded_partitions,
    cell_bounds,
    cells,
    enumerate_gt,
    pattern_weight,
    pop_count,
)
from .qalg import (
    QPoly,
    _byte_width,
    _packed_binomial,
    _reslot,
    _signed_coeffs,
    _signed_value,
    _slot_width,
    _unsigned_coeffs,
    _wrap,
    q_binomial,
    q_pochhammer,
)
from .weights import (
    Partition,
    RankMismatchError,
    Root,
    Weight,
    _Value,
    partition_to_weight,
    root_weight,
    weight_to_bounding_partition,
)


class DecompositionError(RuntimeError):
    """Raised when a function is not a Z[q]-combination of Weyl characters."""


class GradedCharacter(_Value):
    """Symmetric Z[q]-combination of monomials x^e, e an (n+1)-tuple of exponents.

    Every character is symmetric in x_1, ..., x_{n+1}: the constructor
    refuses any other input with ValueError. It stores only `_dominant`, a
    read-only map of each weakly decreasing exponent tuple to its nonzero
    QPoly; `terms`, every exponent tuple with its QPoly, is a read-only
    view built from it on each read. Every operation maps the dominant
    terms (_from_dominant), and equality compares them.
    """

    __slots__ = ("n", "_dominant")

    def __init__(self, n, terms=None):
        n = operator.index(n)
        if n < 1:
            raise ValueError("rank must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        data = _accumulate({}, _checked_terms(n, items))
        dominant = _dominant_terms(data)
        if dominant is None:
            raise ValueError("input is not a symmetric function")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_dominant", MappingProxyType(dominant))

    @property
    def terms(self):
        """Read-only {exponent tuple: QPoly} over every orbit of the character.

        Each read builds the mapping from the dominant terms, so a caller
        that reads it key by key takes it once.
        """
        return MappingProxyType(
            {perm: p for d, p in self._dominant.items() for perm in _orbit(d)}
        )

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * (n + 1): QPoly.one()})

    def is_zero(self):
        return not self._dominant

    def _check_rank(self, other):
        if self.n != other.n:
            raise RankMismatchError("cannot combine characters of different ranks")

    def __add__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        self._check_rank(other)
        return _from_dominant(
            self.n, _accumulate(dict(self._dominant), other._dominant.items())
        )

    def __sub__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        # not a _homogeneous_sum, which would twist both to one degree
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        """Product with a character, an int or a QPoly.

        A scalar multiple is a one-term _homogeneous_sum. A product of
        characters walks the smaller orbit once per pair of dominant keys,
        on coefficients packed as integers (see _symmetric_product).
        """
        if isinstance(other, (int, QPoly)):
            return _homogeneous_sum(self.n, ((self, other),))
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        self._check_rank(other)
        return _from_dominant(
            self.n, _symmetric_product(self._dominant, other._dominant)
        )

    __rmul__ = __mul__

    def det_twist(self, c):
        """Multiply by (x_1 ... x_{n+1})^c, c >= 0: add c to every exponent."""
        c = operator.index(c)
        if c < 0:
            raise ValueError("determinant twist must be nonnegative")
        if c == 0:
            return self
        return _from_dominant(
            self.n, {tuple(e + c for e in k): p for k, p in self._dominant.items()}
        )

    def q1_dimension(self):
        """Total dimension: one coefficient per orbit at q = 1, times its size."""
        return sum(_orbit_size(d) * p.at_one() for d, p in self._dominant.items())

    def specialize_q0(self):
        """Set q = 0, keeping only constant terms."""
        constants = ((k, p.constant_term()) for k, p in self._dominant.items())
        return _from_dominant(self.n, {k: QPoly.const(c) for k, c in constants if c})

    def total_degree(self):
        """Common exponent-sum of all monomials, or None if mixed/empty."""
        degrees = {sum(k) for k in self._dominant}
        return degrees.pop() if len(degrees) == 1 else None

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter) or self.n != other.n:
            return False
        return self._dominant == other._dominant

    __hash__ = None  # equality reads the dominant terms dict

    def __repr__(self):
        return "GradedCharacter(%d, %d terms)" % (self.n, _term_count(self))

    def to_json(self):
        return {
            "rank": self.n,
            "terms": [
                {"exponents": list(k), "coefficient": p.coefficient_list()}
                for k, p in sorted(self.terms.items())
            ],
        }


_new_object = object.__new__
_set_n = GradedCharacter.n.__set__
_set_dominant = GradedCharacter._dominant.__set__


def _accumulate(data, items):
    """Add (key, QPoly) pairs into data in place, dropping cancelled keys."""
    for key, poly in items:
        acc = data.get(key)
        if acc is None:
            data[key] = poly
            continue
        poly = acc + poly
        if poly:
            data[key] = poly
        else:
            del data[key]
    return data


def _checked_terms(n, items):
    """The nonzero (key, QPoly) pairs of constructor input, each validated."""
    for key, poly in items:
        key = tuple(map(operator.index, key))
        if len(key) != n + 1:
            raise RankMismatchError(
                "rank %d character needs %d exponents per term" % (n, n + 1)
            )
        if any(e < 0 for e in key):
            raise ValueError("exponents must be nonnegative")
        if isinstance(poly, int):
            poly = QPoly.const(poly)
        elif not isinstance(poly, QPoly):
            raise TypeError(
                "coefficients must be int or QPoly, not %s" % type(poly).__name__
            )
        if poly:
            yield key, poly


def _dominant_terms(terms):
    """{dominant key: coeff} of a symmetric term dict, None if it is not one.

    The one symmetry test: every key carries the coefficient of its sorted
    key, and the orbit sizes of the dominant keys add up to len(terms).
    Orbits are counted, never listed.
    """
    dominant = {}
    size = 0
    for key, poly in terms.items():
        canon = tuple(sorted(key, reverse=True))
        if canon == key:
            dominant[key] = poly
            size += _orbit_size(key)
        elif terms.get(canon) != poly:
            return None
    return dominant if size == len(terms) else None


def _orbit_size(key):
    """The number (n+1)!/prod m_i! of distinct permutations of a dominant key.

    The m_i are the multiplicities of the n+1 entries. Equal entries of a
    weakly decreasing key are adjacent, so a run of length m divides by 2,
    3, ..., m in turn, and every partial quotient is a whole number.
    """
    size = math.factorial(len(key))
    run = 1
    for prev, entry in zip(key, key[1:]):
        if entry == prev:
            run += 1
            size //= run
        else:
            run = 1
    return size


def _term_count(ch):
    """The number of terms of a character, each orbit counted, none listed."""
    return sum(map(_orbit_size, ch._dominant))


def _from_dominant(n, dominant):
    """The character with these dominant terms: every operation's result.

    The character carries a read-only view of `dominant`, which must hold
    dominant keys and nonzero coefficients only and not be written to
    afterwards.
    """
    ch = _new_object(GradedCharacter)
    _set_n(ch, n)
    _set_dominant(ch, MappingProxyType(dominant))
    return ch


def _symmetric_product(a, b):
    """Dominant terms of a product, from the dominant terms of both factors.

    Write m_d for the sum of x^k over the orbit of a dominant key d; then
    m_d * m_e is the sum of c_nu m_nu over dominant nu. With d fixed, the
    members beta of the orbit of e with sorted(d + beta) = nu number
    c_nu |orbit(nu)| / |orbit(d)|, and c is symmetric in d and e. So each
    pair of dominant keys walks the smaller of its two orbits once, and each
    step adds a[d] b[e] times the other key's orbit size at its nu. The sum
    at nu is then |orbit(nu)| times the product's coefficient, and one exact
    division per product key ends the walk.

    Coefficients are packed at q = 2^(8w) (qalg._signed_value), so the walk
    is int * and +, and each product key is unpacked once. Each monomial of
    a meets at most one monomial of b in a given product monomial, so no
    coefficient of the product exceeds N(a) * M(b): N(a) is the sum of
    |coefficient| over every term of a, orbits counted in full, and M(b)
    the largest sum of |coefficient| over one term of b. Neither does any
    coefficient of a or b. w is the least slot width with 2^(8w - 1) above
    that bound. A key whose value is 0 has cancelled and is dropped.
    """
    if not a or not b:
        # an empty factor has no largest term, and its product is empty
        return {}
    width = _slot_width(_abs_total(a) * _abs_max(b))
    a_terms, b_terms = (
        [(d, _signed_value(p.coeffs, width), _orbit_size(d)) for d, p in f.items()]
        for f in (a, b)
    )
    add = operator.add
    product = {}
    for d, x, size_d in a_terms:
        for e, y, size_e in b_terms:
            if size_e <= size_d:
                fixed, walk, step = d, _orbit(e), x * y * size_d
            else:
                fixed, walk, step = e, _orbit(d), x * y * size_e
            for beta in walk:
                key = tuple(sorted(map(add, fixed, beta), reverse=True))
                acc = product.get(key)
                product[key] = step if acc is None else acc + step
    out = {}
    for key, value in product.items():
        if value:
            out[key] = _wrap(_signed_coeffs(value // _orbit_size(key), width))
    return out


def _abs_total(dominant):
    """N(f): the sum of |coefficient| over every term of a symmetric character."""
    return sum(_orbit_size(d) * sum(map(abs, p.coeffs)) for d, p in dominant.items())


def _abs_max(dominant):
    """M(f): the largest sum of |coefficient| over one term of f."""
    return max(sum(map(abs, p.coeffs)) for p in dominant.values())


def _homogeneous_sum(n, terms):
    """Sum of coeff * ch over (ch, coeff) pairs of symmetric characters.

    Each term is twisted by det_twist up to the total degree of the first
    key of the first nonzero term, then scaled and added; a one-term sum
    is the scalar multiple coeff * ch, whatever degrees ch mixes.
    ArithmeticError when a gap is not a nonnegative multiple of n+1,
    TypeError for a coefficient that is neither int nor QPoly.

    Coefficients are packed as in _symmetric_product: each coeff and each
    dominant coefficient of each term once, at q = 2^(8w), so the sum is
    int * and +, and each key of the sum is unpacked once. No coefficient
    of the sum, of a term or of a coeff exceeds the sum over terms of
    M(ch) * S(coeff), with M(ch) the largest sum of |coefficient| over one
    term of ch and S(coeff) the sum of |coefficient| of coeff; w is the
    least slot width with 2^(8w - 1) above that bound. A key whose value is
    0 has cancelled and is dropped.
    """
    collected = []
    bound = 0
    degree = None
    for ch, coeff in terms:
        dominant = ch._dominant
        if not coeff or not dominant:
            continue
        own = sum(next(iter(dominant)))
        if degree is None:
            degree = own
        shift, rem = divmod(degree - own, n + 1)
        if rem or shift < 0:
            raise ArithmeticError(
                "a term of degree %d is no determinant twist below degree %d"
                % (own, degree)
            )
        if isinstance(coeff, int):
            coeffs = (coeff,)
        elif isinstance(coeff, QPoly):
            coeffs = coeff.coeffs
        else:
            raise TypeError(
                "coefficients must be int or QPoly, not %s" % type(coeff).__name__
            )
        bound += _abs_max(dominant) * sum(map(abs, coeffs))
        collected.append((ch.det_twist(shift)._dominant, coeffs))
    width = _slot_width(bound)
    packed = {}
    for dominant, coeffs in collected:
        scale = _signed_value(coeffs, width)
        for key, p in dominant.items():
            value = _signed_value(p.coeffs, width) * scale
            acc = packed.get(key)
            packed[key] = value if acc is None else acc + value
    return _from_dominant(
        n,
        {
            key: _wrap(_signed_coeffs(value, width))
            for key, value in packed.items()
            if value
        },
    )


def char_multiply(a, b):
    """Product of graded characters (monomial convolution).

    The operands are multiplied on the dominant cone; see
    GradedCharacter.__mul__.
    """
    if not isinstance(a, GradedCharacter) or not isinstance(b, GradedCharacter):
        raise TypeError("char_multiply expects two GradedCharacter operands")
    return a * b


def qwhittaker_partition_char(p, n):
    """q-Whittaker function P_p(x_1, ..., x_{n+1}; q, 0), p with <= n+1 parts.

    Built by the branching rule (Macdonald, *Symmetric Functions and Hall
    Polynomials*, 2nd ed., Ch. VI §7) at t = 0: for a row of length L,

        P_row = sum over rows `upper` of length L-1 interlacing `row` of
                psi_{row/upper}(q) * x_L^{|row| - |upper|} * P_upper,

    with psi_{row/upper} = prod_k [row_k - row_{k+1} choose row_k - upper_k]_q.
    Unrolled down to a single entry this is the sum over GT patterns of the
    gl-weight monomial times the per-cell Gaussian binomials [a+b choose a]_q
    of the POP overlay bounds. The recursion keeps the dominant terms only,
    the rest following by symmetry, and is memoised on row tuples and slot
    width, so characters whose patterns share sub-rows share that work. It
    ends at two-part rows, whose last branching step is the closed form
    P_(a,b) = sum over j of [a-b j]_q x_1^(a-j) x_2^(b+j); their values are
    the binomial cache's own ints, not copies.
    Adding a full column to the bottom row twists by the determinant and
    leaves every psi unchanged.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(p, Partition):
        p = Partition(p)
    return _partition_char_cached(p.padded(n + 1))


@functools.lru_cache(maxsize=None)
def _partition_char_cached(row):
    """P_row at rank len(row) - 1, its dominant terms unpacked to QPoly."""
    width = _row_width(row)
    return _from_dominant(
        len(row) - 1,
        {k: _unpack(v, width) for k, v in _row_dominant_terms(row, width).items()},
    )


@functools.lru_cache(maxsize=None)
def _orbit(key):
    """Every distinct permutation of the weakly decreasing tuple `key`.

    Each distinct entry in turn leads, followed by the orbit of the rest,
    so the work is proportional to the orbit rather than to len(key)!.
    The rest of a weakly decreasing tuple is weakly decreasing, and the
    memo lets the dominant keys of one character share their sub-orbits.
    """
    if len(key) < 2:
        return (key,)
    # a list feeds tuple() faster than a generator, which resumes per item
    return tuple(
        [
            (lead,) + perm
            for i, lead in enumerate(key)
            if not i or key[i - 1] != lead
            for perm in _orbit(key[:i] + key[i + 1:])
        ]
    )


def _branches(row):
    """(upper, last, binomials) for each row `upper` one shorter interlacing
    `row` through which P_row gains a dominant key.

    last = |row| - |upper| is the exponent of the stripped variable, and
    binomials holds the (n, r) of each Gaussian binomial [n r]_q in
    psi_{row/upper}(q) that is not 1; it is empty when psi is 1.

    A dominant key of P_upper lies below upper in dominance, so its last
    part is at most |upper| // (len(row) - 1), and the balanced partition
    of |upper| into len(row) - 1 parts is a key that reaches it. So a key
    of P_upper ending at last or above exists exactly when
    last * len(row) <= |row|, and only those uppers are yielded: the rest
    add nothing to the dominant terms of P_row.
    """
    size = sum(row)
    floor = size - size // len(row)
    *head_pairs, (top, bottom) = zip(row, row[1:])
    # interlacing forces row_{k+1} <= upper_k <= row_k, so every upper row
    # drawn from these ranges is already weakly decreasing; the last range
    # starts where sum(upper) reaches floor, so every upper drawn is yielded
    for head in itertools.product(*(range(lo, hi + 1) for hi, lo in head_pairs)):
        rest = sum(head)
        # the binomial is 1 at either end of its range
        binomials = tuple(
            (hi - lo, hi - u) for (hi, lo), u in zip(head_pairs, head) if lo < u < hi
        )
        for u in range(max(bottom, floor - rest), top + 1):
            last_binomial = ((top - bottom, top - u),) if bottom < u < top else ()
            yield head + (u,), size - rest - u, binomials + last_binomial


def _row_dim(row):
    """dim W(row), which bounds every coefficient of P_row.

    No coefficient of P_row exceeds dim W(row) (see _row_dominant_terms).
    A row whose interlacing ranges are longer than a C index raises
    OverflowError first, since pop_count would raise C(L, i) to a power
    too large to compute and _branches could not enumerate it anyway.
    """
    if row[0] - row[-1] > sys.maxsize:
        raise OverflowError("row %r is too wide to enumerate" % (row,))
    # the weight of row, whose bounding row it is up to determinant columns
    return pop_count(Weight(len(row) - 1, map(operator.sub, row, row[1:])))


def _row_width(row):
    """Slot width in bytes for P_row: the byte length of dim W(row)."""
    return (_row_dim(row).bit_length() + 7) // 8


def _unpack(value, width):
    """The QPoly whose coefficients fill the width-byte slots of value > 0."""
    return _wrap(_unsigned_coeffs(value, width))


@functools.lru_cache(maxsize=None)
def _row_dominant_terms(row, width):
    """{weakly decreasing exponent tuple: coefficient at q = 256^width} of P_row.

    The one branching memo: every character and every peel leader reads
    it. A character build turns each value back into its QPoly by _unpack;
    the peel moves each value to its own q by qalg._reslot. key + (last,) is
    weakly decreasing exactly when key is and key[-1] >= last, so the
    dominant terms of P_row come from the dominant terms of each P_upper
    alone. The dominant keys of P_upper can end above upper[-1], but none
    ends above |upper| // len(upper), so only the uppers with
    last * len(row) <= |row| are visited (see _branches): the sub-rows
    that only the others reach are never built.

    The recursion ends at two-part rows, in closed form: the last branching
    step gives P_(a,b) = sum over 0 <= j <= a-b of [a-b j]_q x_1^(a-j)
    x_2^(b+j), whose dominant keys are (a-j, b+j) for 2j <= a-b (Macdonald,
    Ch. VI §7). Each of their values is the _packed_binomial int itself,
    shared with the binomial cache rather than copied, so at rank 2, where
    nearly every memo row has two parts, the memo holds each weight once.

    Evaluation at an integer is a ring map, so psi products and sums are
    int * and +, and each value is exact. It unpacks to its QPoly, or moves
    to wider slots, when every coefficient is below 256^width, and with
    width >= _row_width(row) it is: every coefficient of P_row is a
    nonnegative polynomial whose value at q = 1 is at most dim W(row), the
    sum of all of them at q = 1.
    """
    # every row has two parts or more (rank >= 1); two parts end the recursion
    if len(row) == 2:
        a, b = row
        return {
            (a - j, b + j): _packed_binomial(a - b, j, width)
            for j in range((a - b) // 2 + 1)
        }
    data = {}
    for upper, last, binomials in _branches(row):
        psi = None
        for n, r in binomials:
            binom = _packed_binomial(n, r, width)
            psi = binom if psi is None else psi * binom
        tail = (last,)
        for key, value in _row_dominant_terms(upper, width).items():
            if key[-1] < last:
                continue
            key += tail
            if psi is not None:
                value *= psi
            # a new key takes the value itself, so unscaled values stay shared
            acc = data.get(key)
            data[key] = value if acc is None else acc + value
    return data


def qwhittaker_char(lam):
    """Graded character of the local Weyl module with highest weight lam.

    Equals the Macdonald polynomial P_{bounding(lam)}(x; q, t) at t = 0.
    """
    if not lam.is_dominant():
        raise ValueError("graded Weyl characters require a dominant weight")
    return qwhittaker_partition_char(weight_to_bounding_partition(lam), lam.n)


def pop_char(lam):
    """Character read off the POP basis: sum of q^{grade} x^{weight}.

    Overlays at different cells are chosen independently, so the POPs on a
    GT pattern sum to the product over its cells of sum q^{|overlay|}. The
    overlays are still enumerated, once per (parts, bound) pair; no POP is
    built, and no binomial weight or row memo of qwhittaker_char is used.
    """
    if not lam.is_dominant():
        raise ValueError("POP characters require a dominant weight")
    cell_list = cells(lam.n)
    series = {}
    data = {}
    for pattern in enumerate_gt(lam, lam.n):
        product = QPoly.one()
        for j, i in cell_list:
            bounds = cell_bounds(pattern, j, i)
            factor = series.get(bounds)
            if factor is None:
                factor = series[bounds] = QPoly(
                    Counter(map(sum, bounded_partitions(*bounds)))
                )
            product = product * factor
        key = pattern_weight(pattern)
        acc = data.get(key)
        data[key] = product if acc is None else acc + product
    return GradedCharacter(lam.n, data)


def irreducible_char(lam):
    """Character of the irreducible module: the q-free pattern sum."""
    if not lam.is_dominant():
        raise ValueError("irreducible characters require a dominant weight")
    data = {}
    for pattern in enumerate_gt(lam, lam.n):
        key = pattern_weight(pattern)
        data[key] = data.get(key, 0) + 1
    return GradedCharacter(lam.n, data)


def _horizontal_strips(mu_padded, m):
    """Rows lam with lam/mu a horizontal m-strip, in descending lexicographic order.

    mu_i <= lam_i <= min(mu_i + m, mu_{i-1}), with no bound mu_0 on lam_1.
    """
    size = sum(mu_padded) + m
    # no part gains more than m boxes; descending ranges give descending heads
    *heads, last_range = [
        range(min(high, low + m), low - 1, -1)
        for low, high in zip(mu_padded, (size,) + mu_padded[:-1])
    ]
    for head in itertools.product(*heads):
        if size - sum(head) in last_range:
            yield head + (size - sum(head),)


def product_onerow(m, mu, rank):
    """Coefficients of P_mu * P_{(m)} in the P basis, as exact polynomials.

    Returns [(lam, coeff)] over all lam in rank+1 rows with lam/mu a
    horizontal m-strip, in descending lexicographic order of lam. The Pieri
    coefficient (Macdonald, *Symmetric Functions and Hall Polynomials*, 2nd
    ed., Ch. VI (6.24)) is (q; q)_m phi_{lam/mu} at t = 0, which with
    a = lam_1 - mu_1 is

        [m a]_q (q; q)_{m-a} prod_{i=2}^{rank+1} [mu_{i-1} - mu_i  lam_i - mu_i]_q.
    """
    m, rank = operator.index(m), operator.index(rank)
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    if m < 0:
        raise ValueError("strip size must be nonnegative")
    rows = rank + 1
    mu_p = mu.padded(rows)
    out = []
    for lam in _horizontal_strips(mu_p, m):
        a = lam[0] - mu_p[0]
        coeff = q_binomial(m, a) * q_pochhammer(m - a)
        for i in range(1, rows):
            coeff = coeff * q_binomial(mu_p[i - 1] - mu_p[i], lam[i] - mu_p[i])
        out.append((Partition(lam), coeff))
    return out


# the fundamental indices (a, b), a <= b, of each tensor variant's factors at
# rank n; M-module variants and filtration families name a variant here
_PAIRS = {
    "omega1_omegan": lambda n: (1, n),
    "omega1_omega1": lambda n: (1, 1),
    "omegan_omegan": lambda n: (n, n),
}
TENSOR_VARIANTS = tuple(_PAIRS)
# each M-module variant: the tensor variant of the square its layers filter
_M_MODULE_VARIANTS = {"first": "omega1_omega1", "last": "omegan_omegan"}


def _lookup(table, variant):
    """table[variant]; ValueError for a variant, hashable or not, that it lacks."""
    if variant not in tuple(table):
        raise ValueError("unknown variant %r" % (variant,))
    return table[variant]


def _tensor_edges(variant, rank):
    """The fundamental indices (a, b), a <= b, of the two factors of a variant."""
    rank = operator.index(rank)
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    return _lookup(_PAIRS, variant)(rank)


def tensor_factors(variant, m, k, rank):
    """The highest weights of the two factors that a tensor variant names."""
    a, b = _tensor_edges(variant, rank)
    return m * Weight.fundamental(rank, a), k * Weight.fundamental(rank, b)


def _pair_weights(variant, m, k, rank):
    """omega_a, m*omega_a + k*omega_b and alpha_ab for a tensor variant's factors."""
    a, b = _tensor_edges(variant, rank)
    first, second = tensor_factors(variant, m, k, rank)
    return Weight.fundamental(rank, a), first + second, root_weight(Root(a, b), rank)


def _tensor_product(variant, m, k, rank):
    """The brute product of the graded Weyl characters of a variant's factors."""
    a, b = tensor_factors(variant, m, k, rank)
    return qwhittaker_char(a) * qwhittaker_char(b)


def _layer(top, beta, j, e):
    """(top - i*beta, (-1)^i [j i]_q q^{i*e - i(i-1)/2}) for i = 0..j: one layer."""
    powers = [QPoly({i * e - i * (i - 1) // 2: (-1) ** i}) for i in range(j + 1)]
    return [(top - i * beta, q_binomial(j, i) * p) for i, p in enumerate(powers)]


def _weyl_sum(n, pairs):
    """Sum of c * ch W(w) over the (w, c) pairs, det-twisted to one degree."""
    return _homogeneous_sum(n, ((qwhittaker_char(w), c) for w, c in pairs))


def tensor_char_fundamental(variant, m, k, rank):
    """Closed form for a tensor product of two one-parameter Weyl modules.

    variant selects the pair of highest weights m*omega_a and k*omega_b:
      omega1_omegan: (a, b) = (1, n),
      omega1_omega1: (a, b) = (1, 1),
      omegan_omegan: (a, b) = (n, n).
    The result is the sum over i = 0..min(m, k) of [m i]_q [k i]_q (q; q)_i
    times the graded Weyl character at m*omega_a + k*omega_b - i*alpha_{ab},
    each term det-twisted so all monomials share the total degree of the
    product. At rank 1 every alpha_{ab} is 2*omega_1.
    """
    _tensor_edges(variant, rank)  # rank and variant errors come first
    if m < 0 or k < 0:
        raise ValueError("module parameters must be nonnegative")
    _, top, beta = _pair_weights(variant, m, k, rank)
    pairs = [
        (top - i * beta, q_binomial(m, i) * q_binomial(k, i) * q_pochhammer(i))
        for i in range(min(m, k) + 1)
    ]
    return _weyl_sum(rank, pairs)


def truncated_char(lam, j):
    """Graded character of the truncated module W_{|lam|-j}(lam), rank n >= 2.

    lam = a omega_1 + b omega_n with |lam| = lam(h_theta) = a + b (not
    lam.size()) and 0 <= j <= min(a, b). Alternating sum over i = 0..j of
    [j i]_q q^{i(|lam|-j) - i(i-1)/2} times the graded Weyl character at
    lam - i*theta, det-twisted to keep a single total degree.
    """
    n = lam.n
    if n < 2:
        raise RankMismatchError("truncated characters require rank >= 2")
    a, b = lam.coeffs[0], lam.coeffs[-1]
    if any(lam.coeffs[1:-1]):
        raise ValueError("the highest weight must be supported on omega_1, omega_n")
    if a < 0 or b < 0:
        raise ValueError("the highest weight must be dominant")
    if not 0 <= j <= min(a, b):
        raise ValueError("truncation parameter j must lie in [0, min(a, b)]")
    theta = root_weight(Root.highest(n), n)
    return _weyl_sum(n, _layer(lam, theta, j, a + b - j))


def m_module_char(nu, lam_scale, variant):
    """Graded character of M(nu, lam) for a doubled fundamental lam.

    variant "first": e = 1, nu supported on omega_1, omega_2; "last":
    e = n, nu supported on omega_{n-1}, omega_n. With lam = 2*lam_scale*omega_e
    this is the alternating sum over i = 0..lam_scale of [lam_scale i]_q
    q^{i(lam_scale+nu_e) - i(i-1)/2} times the graded Weyl character at
    nu + lam - i*alpha_e, det-twisted to keep a single total degree.
    """
    n = nu.n
    e, _ = _tensor_edges(_lookup(_M_MODULE_VARIANTS, variant), n)
    if n < 2:
        raise RankMismatchError("M(nu, lam) characters require rank >= 2")
    if lam_scale < 0:
        raise ValueError("lam_scale must be nonnegative")
    if not nu.is_dominant():
        raise ValueError("nu must be dominant")
    # alpha_e = 2 omega_e - omega_e': its support is omega_e and its neighbour
    alpha = root_weight(Root.simple(e), n)
    if any(c and not s for c, s in zip(nu.coeffs, alpha.coeffs)):
        raise ValueError("nu must be supported on the %s two fundamentals" % variant)
    lam = nu + 2 * lam_scale * Weight.fundamental(n, e)
    return _weyl_sum(n, _layer(lam, alpha, lam_scale, lam_scale + nu.coeffs[e - 1]))


def decompose_weyl_basis(f):
    """Expand a symmetric graded character in the graded Weyl basis.

    Greedy peel: repeatedly take the lexicographically greatest exponent key
    with weakly decreasing entries (the dominant leader), emit its sl-weight
    and coefficient, and subtract that multiple of the corresponding
    character. P_nu is 1 at nu and has every other dominant key below nu, so
    leaders strictly decrease and the peel terminates; a leader that is not
    below the previous one raises DecompositionError.

    The remainder is kept on dominant keys only: the remainder of a
    symmetric input stays symmetric, so its dominant coefficients determine
    it. Each value is its Z[q] coefficient evaluated exactly at
    q = 2^(8w), packed once (qalg._signed_value). A step reads the leader's
    dominant terms straight from the row memo, moves each to the same q by
    its bytes (qalg._reslot), and subtracts it times the leader's value as
    one int multiply and subtract. Evaluation is a ring map, so every value
    stays exact, and no leader's full character is built or cached. The
    memo is read at one width for all leaders, the widest _row_width of the
    leaders so far, so the leaders share their sub-rows; a product of Weyl
    characters has its widest leader first.

    A running bound B keeps the values readable. The remainder is always
    f - sum of c_nu P_nu over the leaders so far, and the coefficients of
    each coefficient of P_nu are nonnegative and add up to at most
    dim W(nu), so no coefficient of the remainder exceeds
    B = max |coefficient of f| + sum of max |coefficient of c_nu| dim W(nu).
    With 2^(8w - 1) > B the leader's coefficient reads back exactly
    (qalg._signed_coeffs), and a value of 0 means the key cancelled. The
    peel starts one byte above max |coefficient of f| + N(f); a step whose
    new B does not fit re-slots every value at the least width that fits
    before it subtracts.
    """
    if not isinstance(f, GradedCharacter):
        raise TypeError("decompose_weyl_basis expects a GradedCharacter")
    dominant = f._dominant
    n = f.n
    out = []
    if not dominant:
        return out
    bound = max(max(map(abs, p.coeffs)) for p in dominant.values())
    width = _byte_width(256 * (bound + _abs_total(dominant)))
    remainder = {k: _signed_value(p.coeffs, width) for k, p in dominant.items()}
    memo_width = 0
    previous = None
    while remainder:
        key = max(remainder)
        if previous is not None and key >= previous:
            raise DecompositionError("peel leader %r not below %r" % (key, previous))
        previous = key
        coeffs = _signed_coeffs(remainder[key], width)
        out.append((partition_to_weight(Partition(key), n), _wrap(coeffs)))
        bound += max(map(abs, coeffs)) * _row_dim(key)
        memo_width = max(memo_width, _row_width(key))
        if _byte_width(bound) > width:
            wider = _byte_width(bound)
            remainder = {
                k: _signed_value(_signed_coeffs(v, width), wider)
                for k, v in remainder.items()
            }
            width = wider
        scale = remainder[key]
        get = remainder.get
        # P_key has coefficient 1 at key, so the leader's own value cancels
        for k, v in _row_dominant_terms(key, memo_width).items():
            v = get(k, 0) - _reslot(v, memo_width, width) * scale
            if v:
                remainder[k] = v
            else:
                del remainder[k]
    return out
