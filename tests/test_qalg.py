from __future__ import annotations

import array
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from weylchar import (
    IntegralityError,
    QPoly,
    grade_shift,
    one_minus_q,
    q_binomial,
    q_pochhammer,
)
from weylchar import charformulas, qalg
from weylchar.filtration import verify_tensor_fundamental
from weylchar.qalg import (
    _at_one,
    _byte_width,
    _packed_binomial,
    _packed_powers,
    _packed_width,
    _reslot,
    _reslot_signed,
    _signed_coeffs,
    _signed_value,
    _trim,
    _unsigned_at_one,
)


class TestQPoly:
    def test_zero_coefficients_dropped(self):
        assert QPoly({2: 0, 1: 3}).coeffs == (0, 3)
        assert QPoly({0: 1}) - QPoly({0: 1}) == QPoly.zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            QPoly({-1: 1})

    @pytest.mark.parametrize("coeffs", [{0: 1.5}, {1.7: 2}, [(1, 2.0)]])
    def test_float_rejected(self, coeffs):
        with pytest.raises(TypeError):
            QPoly(coeffs)

    def test_float_operand_rejected(self):
        p = QPoly({0: 1, 1: 1})
        for op in (lambda: 3.5 - p, lambda: p - 3.5, lambda: 3.5 + p):
            with pytest.raises(TypeError):
                op()
        assert 3 - p == QPoly({0: 2, 1: -1})

    def test_immutable(self):
        with pytest.raises(AttributeError, match="QPoly is immutable"):
            QPoly.one().coeffs = (2,)
        with pytest.raises(AttributeError, match="QPoly is immutable"):
            del QPoly.one().coeffs

    def test_cached_value_refuses_del(self):
        # q_binomial hands every caller the same QPoly
        shared = q_binomial(4, 2)
        with pytest.raises(AttributeError, match="QPoly is immutable"):
            del shared.coeffs
        assert q_binomial(4, 2) is shared
        assert shared.coeffs == (1, 1, 2, 1, 1)

    @pytest.mark.parametrize("c", [0, 5, -2])
    def test_constant_hashes_as_int(self, c):
        assert QPoly.const(c) == c
        assert hash(QPoly.const(c)) == hash(c)
        assert len({QPoly.const(c), c}) == 1

    def test_arithmetic(self):
        p = QPoly({0: 1, 1: 2})
        q = QPoly({1: -2, 3: 5})
        assert p + q == QPoly({0: 1, 3: 5})
        assert p - p == QPoly.zero()
        assert p * QPoly.q() == QPoly({1: 1, 2: 2})
        assert 3 * p == QPoly({0: 3, 1: 6})
        one_plus_q = QPoly.one() + QPoly.q()
        assert one_plus_q * one_plus_q == QPoly({0: 1, 1: 2, 2: 1})

    def test_specializations(self):
        p = QPoly({0: 1, 2: 2, 3: -1})
        assert p.at_one() == 2
        assert p.constant_term() == 1
        assert p.degree() == 3
        assert QPoly.zero().degree() == -1

    def test_coefficient_list(self):
        assert QPoly({0: 1, 2: 2, 3: -1}).coefficient_list() == [1, 0, 2, -1]
        assert QPoly.zero().coefficient_list() == []

    def test_rendering(self):
        assert str(QPoly({0: 1, 2: 2, 3: -1})) == "1 + 2q^2 - q^3"
        assert str(QPoly.zero()) == "0"
        assert str(QPoly({1: -1})) == "-q"
        assert str(QPoly({0: -2, 1: 1})) == "-2 + q"

    def test_divide_exact(self):
        num = q_pochhammer(3)
        assert num.divide_exact(one_minus_q(2)) * one_minus_q(2) == num
        with pytest.raises(IntegralityError):
            QPoly({0: 1, 1: 1}).divide_exact(one_minus_q(1))
        with pytest.raises(ZeroDivisionError):
            QPoly.one().divide_exact(QPoly.zero())

    @given(st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6),
           st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6))
    def test_product_commutes_and_evaluates(self, a, b):
        p, q = QPoly(a), QPoly(b)
        assert p * q == q * p
        assert (p * q).at_one() == p.at_one() * q.at_one()
        assert (p + q).at_one() == p.at_one() + q.at_one()

    @given(st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6),
           st.integers(1, 5))
    def test_exact_division_round_trip(self, a, k):
        p = QPoly(a)
        assert (p * one_minus_q(k)).divide_exact(one_minus_q(k)) == p


def naive_product(a, b):
    """Dict convolution of two {exponent: coefficient} maps, zeros dropped."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


@st.composite
def coeff_dicts(draw, max_len=300, low_zeros=0):
    """Signed coefficient dicts of length up to max_len, with magnitudes up to
    2^70, sometimes a negative leading coefficient and some explicit zero
    entries; up to low_zeros of the lowest coefficients are zero."""
    length = draw(st.integers(0, max_len))
    bound = draw(st.sampled_from((9, 2**70)))
    dense = draw(st.lists(st.integers(-bound, bound), min_size=length, max_size=length))
    zero_run = draw(st.integers(0, min(low_zeros, length)))
    dense[:zero_run] = [0] * zero_run
    if dense and draw(st.booleans()):
        dense[-1] = -abs(dense[-1]) or -1
    zeros = draw(st.sets(st.integers(0, max_len), max_size=8))
    out = {k: c for k, c in enumerate(dense) if c}
    out.update((k, 0) for k in zeros)
    return out


def horner_value(coeffs, width):
    """Value at q = 256^width by a Horner loop of shifts, top slot first."""
    value = 0
    for c in reversed(coeffs):
        value = (value << 8 * width) + c
    return value


def unsigned_coeffs(value, width):
    """The coefficients of a value whose slots hold integers below 256^width.

    One byte wider each fits a signed slot, so _reslot and the signed read
    give them back: the route by which row memo values reach signed slots.
    """
    return _signed_coeffs(_reslot(value, width, width + 1), width + 1)


def check_unsigned_slots():
    # full slots, a zero slot and a lone top bit, at the widths read by array
    # and at those read by int.from_bytes: coefficients of the packed row
    # memo seldom reach the top bit of their slot, so its rows cannot show a
    # signed read
    for width in range(1, 10):
        top = 256**width - 1
        coeffs = (top, 0, 1 << (8 * width - 1), 1, top)
        value = sum(c << (8 * width * i) for i, c in enumerate(coeffs))
        assert horner_value(coeffs, width) == value, width
        assert unsigned_coeffs(value, width) == coeffs, width


class TestDenseArithmetic:
    @settings(deadline=None)
    @given(coeff_dicts(), coeff_dicts())
    def test_product_matches_naive_convolution(self, a, b):
        assert (QPoly(a) * QPoly(b)).coeffs == QPoly(naive_product(a, b)).coeffs

    @settings(deadline=None, max_examples=300)
    @given(coeff_dicts(max_len=10, low_zeros=4), coeff_dicts(max_len=10, low_zeros=4))
    def test_short_products_match_naive_convolution(self, a, b):
        # every product of two non-constant operands is a Kronecker product,
        # the shortest included
        assert QPoly(a) * QPoly(b) == QPoly(naive_product(a, b))

    @pytest.mark.parametrize("nbytes", range(1, 11))
    def test_product_coefficient_at_slot_bound(self, nbytes):
        # eight coefficients of magnitude 2^(4w-2) give a middle product
        # coefficient of exactly +-2^(8w-1), one past what w signed bytes hold
        m = 2 ** (4 * nbytes - 2)
        for a, b in (((m,) * 8, (m,) * 8), ((m,) * 8, (-m,) * 8),
                     ((-m, m) * 4, (m, -m) * 4)):
            a, b = dict(enumerate(a)), dict(enumerate(b))
            assert (QPoly(a) * QPoly(b)).coeffs == QPoly(naive_product(a, b)).coeffs

    @settings(deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_signed_slots_round_trip(self, width, data):
        # the extremes +-(2^(8w-1) - 1) in any slot, the top one included,
        # read back from the packed value alone
        top = 2 ** (8 * width - 1) - 1
        entries = st.sampled_from((-top, -1, 0, 1, top)) | st.integers(-top, top)
        coeffs = data.draw(st.lists(entries, max_size=12))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        value = _signed_value(coeffs, width)
        assert value == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
        assert _signed_coeffs(value, width) == tuple(coeffs)

    def test_unsigned_slots_read_back(self):
        check_unsigned_slots()

    @settings(deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_unsigned_value_round_trip(self, width, data):
        # empty and full slots anywhere, the top ones included
        top = 256**width - 1
        entries = st.sampled_from((0, 1, top)) | st.integers(0, top)
        coeffs = data.draw(st.lists(entries, max_size=12))
        value = horner_value(coeffs, width)
        assert unsigned_coeffs(value, width) == _trim(coeffs)

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(0, 4), st.data())
    def test_reslot_is_the_value_at_a_wider_q(self, width, extra, data):
        # empty and full slots anywhere, moved to slots up to 4 bytes wider
        top = 256**width - 1
        entries = st.sampled_from((0, 1, top)) | st.integers(0, top)
        coeffs = data.draw(st.lists(entries, max_size=12))
        value = horner_value(coeffs, width)
        assert _reslot(value, width, width + extra) == horner_value(
            coeffs, width + extra
        )

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_reslot_narrows_when_the_slots_hold_every_coefficient(
        self, width, new_width, data
    ):
        # the peel moves memo values to a remainder narrower than the memo
        # when its running bound allows: full slots of the narrower width
        top = 256 ** min(width, new_width) - 1
        entries = st.sampled_from((0, 1, top)) | st.integers(0, top)
        coeffs = data.draw(st.lists(entries, max_size=12))
        moved = _reslot(horner_value(coeffs, width), width, new_width)
        assert moved == horner_value(coeffs, new_width)

    @settings(deadline=None)
    @given(st.integers(1, 10), st.integers(1, 12), st.data())
    def test_signed_reslot_is_the_value_at_another_q(self, width, new_width, data):
        # the extremes +-(2^(8w-1) - 1) of the narrower width in any slot,
        # the top one included, moved to a wider or a narrower slot
        top = 2 ** (8 * min(width, new_width) - 1) - 1
        entries = st.sampled_from((-top, -1, 0, 1, top)) | st.integers(-top, top)
        coeffs = data.draw(st.lists(entries, max_size=12))
        moved = _reslot_signed(horner_value(coeffs, width), width, new_width)
        assert moved == horner_value(coeffs, new_width)

    @pytest.mark.parametrize("width", range(1, 11))
    def test_signed_reslot_at_the_slot_extremes(self, width):
        # +-(2^(8w-1) - 1), the largest |c| of w signed bytes, in every
        # position, there and back through wider slots
        top = 2 ** (8 * width - 1) - 1
        for coeffs in ((top,), (-top,), (top, -top), (-top, 0, top), (0, -1, -top)):
            value = _signed_value(coeffs, width)
            for wider in (width + 1, width + 3, 12):
                moved = _reslot_signed(value, width, wider)
                assert moved == horner_value(coeffs, wider), (coeffs, wider)
                assert _reslot_signed(moved, wider, width) == value
                assert _signed_coeffs(moved, wider) == coeffs
            assert _reslot_signed(value, width, width) == value

    @settings(deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_at_one_reads_the_packed_value(self, width, data):
        # any p with |p(1)| below 2^(8w-1), the extremes among them
        top = 2 ** (8 * width - 1) - 1
        extremes = st.sampled_from(([top], [-top], [0, top], [1, -top], []))
        small = st.lists(st.integers(-(top // 12), top // 12), max_size=12)
        coeffs = data.draw(extremes | small)
        assert _at_one(horner_value(coeffs, width), width) == sum(coeffs)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_unsigned_at_one_reads_the_top_of_the_range(self, width):
        # p(1) from 2^(8w-1) + 1, which the signed read takes as negative,
        # up to 256^w - 1, whose residue is 0, spread over slots or in one
        top = 256**width - 1
        for total in (1, 2 ** (8 * width - 1) + 1, top):
            for coeffs in ([total], [0, total], [total - total // 2, 0, total // 2]):
                value = horner_value(coeffs, width)
                assert _unsigned_at_one(value, width) == total, (coeffs, width)
        assert _at_one(horner_value([top], width), width) == 0
        assert _at_one(2 ** (8 * width - 1) + 1, width) < 0

    def test_packed_width_is_eight_below_two_to_the_63(self):
        bounds = (0, 1, 2**63 - 1, 2**63, 2**71 - 1, 2**71)
        assert [_packed_width(b) for b in bounds] == [8, 8, 8, 9, 9, 10]

    def test_packed_powers_add_repeats(self):
        assert _packed_powers([5, 0, 2, 2], 8) == horner_value([1, 0, 2, 0, 0, 1], 8)
        assert _packed_powers(iter([3]), 9) == horner_value([0, 0, 0, 1], 9)

    @pytest.mark.parametrize("width", range(1, 13))
    def test_byte_width_is_the_least_signed_slot(self, width):
        # 2^(8w - 1) - 1 is the largest |c| a signed slot of w bytes holds
        top = 2 ** (8 * width - 1)
        assert _byte_width(top - 1) == width
        assert _byte_width(top) == width + 1
        assert _signed_coeffs(_signed_value([top - 1, 1 - top], width), width) == (
            top - 1,
            1 - top,
        )

    def test_packed_binomial_matches_horner(self):
        # every coefficient of [n r]_q is at most C(n, r), so the byte
        # length of C(n, r) is the narrowest slot that holds it; the Pascal
        # rule on packed values is checked at that width and every wider
        # one up to 12 bytes
        for n in range(41):
            for r in range(n + 1):
                coeffs = q_binomial(n, r).coeffs
                least = (math.comb(n, r).bit_length() + 7) // 8
                for width in range(least, 13):
                    packed = _packed_binomial(n, r, width)
                    assert packed == horner_value(coeffs, width), (n, r, width)
                    assert unsigned_coeffs(packed, width) == coeffs, (n, r, width)

    @settings(deadline=None)
    @given(coeff_dicts(max_len=40))
    def test_dense_form_is_trimmed(self, a):
        p = QPoly(a)
        assert not p.coeffs or p.coeffs[-1] != 0
        assert p.coeffs == tuple(a.get(k, 0) for k in range(len(p.coeffs)))
        assert p.degree() == max((k for k, c in a.items() if c), default=-1)

    @settings(deadline=None)
    @given(coeff_dicts(max_len=40), coeff_dicts(max_len=40))
    def test_sum_and_negation(self, a, b):
        expected = {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
        assert QPoly(a) + QPoly(b) == QPoly(expected)
        assert QPoly(a) - QPoly(a) == QPoly.zero()
        assert -QPoly(a) == QPoly({k: -c for k, c in a.items()})

    @settings(deadline=None)
    @given(coeff_dicts(), coeff_dicts(max_len=40))
    def test_divide_exact_round_trip_large_degree(self, a, b):
        p, d = QPoly(a), QPoly(b)
        if d.is_zero():
            return
        assert (p * d).divide_exact(d) == p

    @settings(deadline=None)
    @given(st.integers(20, 60), st.integers(1, 40))
    def test_divide_exact_cyclotomic_large_degree(self, n, k):
        p = q_binomial(n, n // 2)
        assert (p * one_minus_q(k)).divide_exact(one_minus_q(k)) == p
        with pytest.raises(IntegralityError):
            # a multiple of 1 - q^k vanishes at q = 1; this does not
            (p * one_minus_q(k) + 1).divide_exact(one_minus_q(k))

    @settings(deadline=None)
    @given(coeff_dicts(max_len=40))
    def test_equal_polynomials_agree(self, a):
        # a second construction through (exponent, coefficient) pairs in
        # reverse order, with a cancelling extra term
        pairs = sorted(a.items(), reverse=True) + [(7, 5), (7, -5)]
        p, q = QPoly(a), QPoly(pairs)
        assert p == q
        assert hash(p) == hash(q)
        assert str(p) == str(q)
        assert repr(p) == repr(q)
        assert p.coefficient_list() == q.coefficient_list()


class BigEndianArray(array.array):
    """array.array as a big-endian host keeps it: bytes read into items and
    written from them most significant byte first."""

    def __new__(cls, typecode, initializer=()):
        items = super().__new__(cls, typecode, initializer)
        if sys.byteorder == "little" and isinstance(initializer, (bytes, bytearray)):
            items.byteswap()
        return items

    def tobytes(self):
        items = array.array(self.typecode, self)
        if sys.byteorder == "little":
            items.byteswap()
        return items.tobytes()


def clear_unpacked_caches():
    # caches whose QPoly values were read back from packed slots
    charformulas._partition_char_cached.cache_clear()
    qalg.q_pochhammer.cache_clear()


@pytest.fixture
def big_endian_host(monkeypatch):
    """qalg as it runs on a big-endian host."""
    monkeypatch.setattr(qalg, "array", BigEndianArray)
    monkeypatch.setattr(qalg, "_BYTESWAP", True)
    clear_unpacked_caches()
    yield
    clear_unpacked_caches()


@pytest.mark.usefixtures("big_endian_host")
class TestBigEndianHost:
    def test_simulated_array_is_big_endian(self):
        assert BigEndianArray("h", [1]).tobytes() == b"\x00\x01"
        assert tuple(BigEndianArray("h", b"\x00\x01")) == (1,)

    def test_product_with_zero_low_coefficients(self):
        a, b = {k: 1 for k in range(1, 6)}, {k: 1 for k in range(5)}
        assert (QPoly(a) * QPoly(b)).coeffs == (0, 1, 2, 3, 4, 5, 4, 3, 2, 1)

    @settings(
        deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(coeff_dicts(max_len=40, low_zeros=4), coeff_dicts(max_len=40, low_zeros=4))
    def test_products_match_naive_convolution(self, a, b):
        assert (QPoly(a) * QPoly(b)).coeffs == QPoly(naive_product(a, b)).coeffs

    def test_signed_slots_round_trip(self):
        for width in range(1, 11):
            top = 2 ** (8 * width - 1) - 1
            for coeffs in ((0, 0, -top, 1, top), (top, -1, 0, -top), (-1,)):
                value = _signed_value(coeffs, width)
                assert value == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
                assert _signed_coeffs(value, width) == coeffs, width

    def test_unsigned_slots_read_back(self):
        check_unsigned_slots()

    def test_tensor_closed_form(self):
        report = verify_tensor_fundamental("omega1_omegan", 3, 3, 2)
        assert report.status == "pass"


class TestQBinomial:
    def test_frozen_example(self):
        assert q_binomial(4, 2) == QPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_out_of_range(self):
        assert q_binomial(3, 5) == QPoly.zero()
        assert q_binomial(-1, 0) == QPoly.zero()
        assert q_binomial(3, -1) == QPoly.zero()

    def test_non_integer_rejected(self):
        # the cache is typed: a float equal to a cached int is a miss, so it
        # raises too, and bench/worker.py still reads cache_info()
        assert q_binomial(2, 1) == QPoly({0: 1, 1: 1})
        for n, r in ((2.5, 1), (2, 1.0), (2.0, 1)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                q_binomial(n, r)
        assert q_binomial.cache_info().currsize > 0

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_q1_is_binomial(self, n, r):
        assert q_binomial(n, r).at_one() == (math.comb(n, r) if r <= n else 0)

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_symmetry(self, n, r):
        assert q_binomial(n, r) == q_binomial(n, n - r)

    @given(st.integers(1, 16), st.integers(0, 16))
    def test_pascal(self, n, r):
        expected = q_binomial(n - 1, r - 1) + QPoly.q(r) * q_binomial(n - 1, r)
        assert q_binomial(n, r) == expected

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_pochhammer_factorization(self, n, r):
        # [n r] (q;q)_r (q;q)_{n-r} == (q;q)_n
        if r <= n:
            lhs = q_binomial(n, r) * q_pochhammer(r) * q_pochhammer(n - r)
            assert lhs == q_pochhammer(n)


class TestQPochhammer:
    def test_frozen_example(self):
        assert q_pochhammer(2) == QPoly({0: 1, 1: -1, 2: -1, 3: 1})

    def test_base(self):
        assert q_pochhammer(0) == QPoly.one()
        with pytest.raises(ValueError):
            q_pochhammer(-1)

    def test_non_integer_rejected(self):
        assert q_pochhammer(2) == QPoly({0: 1, 1: -1, 2: -1, 3: 1})
        for m in (2.5, 2.0, -0.5):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                q_pochhammer(m)

    @given(st.integers(1, 15))
    def test_recurrence(self, m):
        assert q_pochhammer(m) == q_pochhammer(m - 1) * one_minus_q(m)

    @given(st.integers(1, 15))
    def test_vanishes_at_one(self, m):
        assert q_pochhammer(m).at_one() == 0


class TestGradeShift:
    def test_shift(self):
        assert grade_shift(QPoly({0: 1, 2: -3}), 2) == QPoly({2: 1, 4: -3})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            grade_shift(QPoly.one(), -1)

    def test_non_polynomial_rejected(self):
        with pytest.raises(TypeError, match="grade_shift expects a QPoly"):
            grade_shift(1, 2)

    @given(st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6),
           st.integers(0, 6))
    def test_matches_q_power_multiplication(self, a, s):
        p = QPoly(a)
        assert grade_shift(p, s) == p * QPoly.q(s)
