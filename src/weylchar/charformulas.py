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
builds no QPoly binomial.

Every character the paper handles is symmetric, and so is every
GradedCharacter: its dominant terms, a Z[q]-combination of monomial
symmetric functions (Macdonald, Ch. I §2), determine it, and they are all
it stores, packed the same way: each coefficient is one signed int, its
value at q = 2^(8w) (qalg._signed_value), with w from qalg._packed_width,
8 bytes unless a coefficient may reach 2^63. QPoly is the API edge only:
the constructor packs its input once (_pack), after _dominant_terms, the
one symmetry test and split, has refused anything that is not symmetric;
_from_dominant is the one way back from packed values; `terms` and
`_dominant` unpack on each read. A character built from the row memo
takes the memo's ints moved to its own w by qalg._reslot, and shares them
when the widths agree. Each character also carries N(f), the sum of
|coefficient| over every term, orbits counted in full, and M(f), the
largest sum of |coefficient| over one term; for results they are upper
bounds, which only choose widths.

Every operation, from + and det_twist to products, the closed-form sums
and the peel, maps the packed dominant terms as ints: a det twist shifts
keys, and two characters are equal exactly when their dominant terms are,
compared as ints at a common width (qalg._reslot_signed). Orbits are
counted by _orbit_size and listed by _orbit only where they are walked: by
the `terms` view, which output reads, and by the product walk.

A product of two characters is a sum of products m_d * m_e of
monomial symmetric functions, m_d the orbit sum of a dominant key d, whose
structure constants come from one walk of the smaller orbit per pair of
dominant keys, as int * and + on the packed values (see
_symmetric_product). The closed-form sums (_homogeneous_sum), scalar
multiples among them, pack each scalar once and add int products per
dominant term. pop_char multiplies its per-cell series as packed ints as
well, at the width of pop_count(lam), without the row memo or its binomials.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
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
    _at_one,
    _byte_width,
    _packed_binomial,
    _packed_powers,
    _packed_width,
    _reslot,
    _reslot_signed,
    _signed_coeffs,
    _signed_value,
    _unsigned_at_one,
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
    refuses any other input with ValueError. It stores only `_packed`, each
    weakly decreasing exponent tuple with its nonzero coefficient as one
    signed int at q = 2^(8 * _width), and the bounds _total = N(f) and
    _top = M(f) (see the module docstring). `_dominant`, the same map with
    QPoly coefficients, and `terms`, every exponent tuple with its QPoly,
    are read-only views built on each read. Every operation maps the packed
    dominant terms (_from_dominant), and equality compares them.
    """

    __slots__ = ("n", "_packed", "_width", "_total", "_top")

    def __init__(self, n, terms=None):
        n = operator.index(n)
        if n < 1:
            raise ValueError("rank must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        data = _accumulate({}, _checked_terms(n, items))
        super().__init__(n, *_pack(_dominant_terms(data)))

    @property
    def _dominant(self):
        """Read-only {dominant key: QPoly}, unpacked on each read."""
        width = self._width
        return MappingProxyType(
            {d: _wrap(_signed_coeffs(v, width)) for d, v in self._packed.items()}
        )

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
        return not self._packed

    def _check_rank(self, other):
        if self.n != other.n:
            raise RankMismatchError("cannot combine characters of different ranks")

    def __add__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        self._check_rank(other)
        top = self._top + other._top
        width = _packed_width(top)
        data = _accumulate(
            dict(_values_at(self, width)), _values_at(other, width).items()
        )
        return _from_dominant(self.n, data, width, self._total + other._total, top)

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
        on the packed coefficients (see _symmetric_product).
        """
        if isinstance(other, (int, QPoly)):
            return _homogeneous_sum(self.n, ((self, other),))
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        self._check_rank(other)
        return _symmetric_product(self, other)

    __rmul__ = __mul__

    def det_twist(self, c):
        """Multiply by (x_1 ... x_{n+1})^c, c >= 0: add c to every exponent."""
        c = operator.index(c)
        if c < 0:
            raise ValueError("determinant twist must be nonnegative")
        if c == 0:
            return self
        return _from_dominant(
            self.n,
            {tuple(e + c for e in k): v for k, v in self._packed.items()},
            self._width,
            self._total,
            self._top,
        )

    def q1_dimension(self):
        """Total dimension: one coefficient per orbit at q = 1, times its size.

        The packed values times their orbit sizes add up to one int whose
        value at q = 1 is the dimension, read at a width that holds N, so
        every sum of slots and the dimension itself fit.
        """
        width = _packed_width(self._total)
        value = sum(_orbit_size(d) * v for d, v in _values_at(self, width).items())
        return _at_one(value, width)

    def specialize_q0(self):
        """Set q = 0, keeping only constant terms."""
        constants = ((k, p.constant_term()) for k, p in self._dominant.items())
        return _from_dominant(
            self.n, *_pack({k: QPoly.const(c) for k, c in constants if c})
        )

    def total_degree(self):
        """Common exponent-sum of all monomials, or None if mixed/empty."""
        degrees = {sum(k) for k in self._packed}
        return degrees.pop() if len(degrees) == 1 else None

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter) or self.n != other.n:
            return False
        width = max(self._width, other._width)
        return _values_at(self, width) == _values_at(other, width)

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
_set_packed = GradedCharacter._packed.__set__
_set_width = GradedCharacter._width.__set__
_set_total = GradedCharacter._total.__set__
_set_top = GradedCharacter._top.__set__


def _accumulate(data, items):
    """Add (key, coefficient) pairs into data in place, dropping cancelled keys.

    The coefficients are QPoly, or packed ints of one width.
    """
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
    """{dominant key: coeff} of a symmetric term dict; ValueError if it is not one.

    The one symmetry test: every key carries the coefficient of its sorted
    key, and the orbit sizes of the dominant keys add up to len(terms).
    Orbits are counted, never listed. Coefficients are compared with !=, so
    QPoly and packed ints of one width both do.
    """
    dominant = {}
    size = 0
    for key, coeff in terms.items():
        canon = tuple(sorted(key, reverse=True))
        if canon == key:
            dominant[key] = coeff
            size += _orbit_size(key)
        elif terms.get(canon) != coeff:
            break
    else:
        if size == len(terms):
            return dominant
    raise ValueError("input is not a symmetric function")


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
    return sum(map(_orbit_size, ch._packed))


def _pack(dominant):
    """(values, width, N, M) of {dominant key: nonzero QPoly}: the constructor's edge.

    N and M are exact, and each coefficient is packed once, at the width
    that M chooses.
    """
    sums = {d: sum(map(abs, p.coeffs)) for d, p in dominant.items()}
    top = max(sums.values(), default=0)
    width = _packed_width(top)
    values = {d: _signed_value(p.coeffs, width) for d, p in dominant.items()}
    return values, width, sum(_orbit_size(d) * s for d, s in sums.items()), top


def _from_dominant(n, values, width, total, top):
    """The character with these packed dominant terms: every operation's result.

    values maps dominant keys to nonzero ints at q = 2^(8 * width), which
    hold every coefficient; total and top bound N and M from above. The
    character keeps values itself, which must not be written to afterwards.
    """
    ch = _new_object(GradedCharacter)
    _set_n(ch, n)
    _set_packed(ch, values)
    _set_width(ch, width)
    _set_total(ch, total)
    _set_top(ch, top)
    return ch


def _values_at(ch, width):
    """The packed dominant terms of ch at q = 2^(8 * width).

    width must hold every coefficient of ch; at ch's own width they are
    ch's values themselves.
    """
    if width == ch._width:
        return ch._packed
    old = ch._width
    return {k: _reslot_signed(v, old, width) for k, v in ch._packed.items()}


def _symmetric_product(a, b):
    """The product of two characters, from the dominant terms of both.

    Write m_d for the sum of x^k over the orbit of a dominant key d; then
    m_d * m_e is the sum of c_nu m_nu over dominant nu. With d fixed, the
    members beta of the orbit of e with sorted(d + beta) = nu number
    c_nu |orbit(nu)| / |orbit(d)|, and c is symmetric in d and e. So each
    pair of dominant keys walks the smaller of its two orbits once, and each
    step adds a[d] b[e] times the other key's orbit size at its nu. The sum
    at nu is then |orbit(nu)| times the product's coefficient, and one exact
    division per product key ends the walk.

    The walk is int * and + on the packed values. Each monomial of a meets
    at most one monomial of b in a given product monomial, so no
    coefficient of the product exceeds N(a) * M(b), nor M(a) * N(b), nor
    does any sum of |coefficient| over one product term; the sum over every
    product term is at most N(a) * N(b). The smaller of the first two
    bounds chooses the product's width, or the wider factor's width is
    kept, and a factor of a narrower width moves to it. A key whose value
    is 0 has cancelled and is dropped.
    """
    total = a._total * b._total
    top = min(a._total * b._top, a._top * b._total)
    width = max(_packed_width(top), a._width, b._width)
    a_terms, b_terms = (
        [(d, x, _orbit_size(d)) for d, x in _values_at(f, width).items()]
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
            out[key] = value // _orbit_size(key)
    return _from_dominant(a.n, out, width, total, top)


def _homogeneous_sum(n, terms):
    """Sum of coeff * ch over (ch, coeff) pairs of symmetric characters.

    Each term is twisted by det_twist up to the total degree of the first
    key of the first nonzero term, then scaled and added; a one-term sum
    is the scalar multiple coeff * ch, whatever degrees ch mixes.
    ArithmeticError when a gap is not a nonnegative multiple of n+1,
    TypeError for a coefficient that is neither int nor QPoly.

    The twist shifts the keys of the packed values, each coeff is packed
    once, and the sum is int * and + per dominant term. No coefficient of
    the sum, of a term or of a coeff exceeds the sum over terms of
    M(ch) * S(coeff), S(coeff) the sum of |coefficient| of coeff, which
    bounds M of the sum; N is bounded likewise. The width is the one that
    bound chooses, and a term of a narrower width moves to it. A key whose
    value is 0 has cancelled and is dropped.
    """
    collected = []
    total = top = 0
    degree = None
    for ch, coeff in terms:
        if not coeff or not ch._packed:
            continue
        own = sum(next(iter(ch._packed)))
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
        scale = sum(map(abs, coeffs))
        total += ch._total * scale
        top += ch._top * scale
        collected.append((ch, shift, coeffs))
    width = _packed_width(top)
    packed = {}
    for ch, shift, coeffs in collected:
        scale = _signed_value(coeffs, width)
        for key, value in _values_at(ch, width).items():
            if shift:
                key = tuple(e + shift for e in key)
            value *= scale
            acc = packed.get(key)
            packed[key] = value if acc is None else acc + value
    return _from_dominant(
        n, {key: value for key, value in packed.items() if value}, width, total, top
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
    """P_row at rank len(row) - 1, on the memo's values moved to its own width.

    Every coefficient of P_row is nonnegative and at most dim W(row), which
    chooses the width; where it is the memo's, the values are the memo's.
    """
    memo_width = _row_width(row)
    dim = _row_dim(row)
    width = _packed_width(dim)
    values = _row_dominant_terms(row, memo_width)
    return _from_dominant(
        len(row) - 1,
        {k: _reslot(v, memo_width, width) for k, v in values.items()},
        width,
        dim,
        _row_top(row, memo_width),
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


def _row_top(row, width):
    """M(P_row): the memo value at the balanced key of |row|, read at q = 1.

    P_row(x; 1, 0) = e_{row'} (Macdonald, Ch. VI (4.14)), whose
    multiplicities rise down the dominance order, and the balanced key is
    below every other. width must be at least _row_width(row).
    """
    low, extra = divmod(sum(row), len(row))
    balanced = (low + 1,) * extra + (low,) * (len(row) - extra)
    return _unsigned_at_one(_row_dominant_terms(row, width)[balanced], width)


@functools.lru_cache(maxsize=None)
def _row_dominant_terms(row, width):
    """{weakly decreasing exponent tuple: coefficient at q = 256^width} of P_row.

    The one branching memo: every character and every peel leader reads it,
    and each moves the values to its own q by qalg._reslot. key + (last,) is
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
    int * and +, and each value is exact. It unpacks to its coefficients, or
    moves to wider slots, when every coefficient is below 256^width, and with
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
    Each series is packed once (qalg._packed_powers) at the width that
    pop_count(lam) chooses: every coefficient is nonnegative and the POPs
    number pop_count(lam), so the products and sums are int * and +. The
    terms of every weight pass the constructor's symmetry test.
    """
    if not lam.is_dominant():
        raise ValueError("POP characters require a dominant weight")
    dim = pop_count(lam)
    width = _packed_width(dim)
    cell_list = cells(lam.n)
    series = {}
    data = {}
    for pattern in enumerate_gt(lam, lam.n):
        product = 1
        for j, i in cell_list:
            bounds = cell_bounds(pattern, j, i)
            factor = series.get(bounds)
            if factor is None:
                factor = series[bounds] = _packed_powers(
                    map(sum, bounded_partitions(*bounds)), width
                )
            product *= factor
        key = pattern_weight(pattern)
        data[key] = data.get(key, 0) + product
    values = _dominant_terms(data)
    top = max(_at_one(v, width) for v in values.values())
    return _from_dominant(lam.n, values, width, dim, top)


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


def _integer(value, name):
    """operator.index(value), or a TypeError that names the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            "%s must be an integer, not %s" % (name, type(value).__name__)
        ) from None


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
    m, k = _integer(m, "m"), _integer(k, "k")
    _tensor_edges(variant, rank)  # rank and variant errors before the signs
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
    j = _integer(j, "j")
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
    lam_scale = _integer(lam_scale, "lam_scale")
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
    q = 2^(8w), and the peel starts from f's packed values, moved to its w
    by qalg._reslot_signed. A step reads the leader's dominant terms
    straight from the row memo, moves each to the same q by its bytes
    (qalg._reslot), and subtracts it times the leader's value as one int
    multiply and subtract. Evaluation is a ring map, so every value stays
    exact, and no leader's full character is built or cached. The memo is
    read at one width for all leaders, the widest _row_width of the leaders
    so far, so the leaders share their sub-rows; a product of Weyl
    characters has its widest leader first.

    A running bound B keeps the values readable. The remainder is
    f - sum of c_nu P_nu over the leaders so far, and every coefficient of
    P_nu is nonnegative and at most M(P_nu) at q = 1 (_row_top), so none of
    the remainder exceeds B = M(f) + sum of max |coefficient of c_nu| M(P_nu).
    With 2^(8w - 1) > B the leader's coefficient reads back exactly
    (qalg._signed_coeffs), and a value of 0 means the key cancelled. w
    starts at that of M(f) + N(f), which B stays within on most squares of
    Weyl characters; a step whose B outgrows w re-slots every value first.
    """
    if not isinstance(f, GradedCharacter):
        raise TypeError("decompose_weyl_basis expects a GradedCharacter")
    n = f.n
    out = []
    if not f._packed:
        return out
    bound = f._top
    width = _byte_width(bound + f._total)
    remainder = dict(_values_at(f, width))
    memo_width = 0
    previous = None
    while remainder:
        key = max(remainder)
        if previous is not None and key >= previous:
            raise DecompositionError("peel leader %r not below %r" % (key, previous))
        previous = key
        coeffs = _signed_coeffs(remainder[key], width)
        out.append((partition_to_weight(Partition(key), n), _wrap(coeffs)))
        memo_width = max(memo_width, _row_width(key))
        bound += max(map(abs, coeffs)) * _row_top(key, memo_width)
        if _byte_width(bound) > width:
            wider = _byte_width(bound)
            remainder = {
                k: _reslot_signed(v, width, wider) for k, v in remainder.items()
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
