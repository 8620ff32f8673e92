from __future__ import annotations

import functools
import io
import itertools
import json
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from weylchar import (
    DecompositionError,
    GradedCharacter,
    Partition,
    QPoly,
    RankMismatchError,
    Weight,
    char_multiply,
    decompose_weyl_basis,
    irreducible_char,
    m_module_char,
    partition_to_weight,
    pop_char,
    pop_count,
    product_onerow,
    q_binomial,
    qwhittaker_char,
    qwhittaker_partition_char,
    tensor_char_fundamental,
    truncated_char,
    weight_to_bounding_partition,
)
from weylchar import charformulas, cli, gtpop, qalg
from weylchar.charformulas import (
    _branches,
    _homogeneous_sum,
    _orbit,
    _orbit_size,
    _partition_char_cached,
    _row_dominant_terms,
    _row_width,
    _unpack,
    tensor_factors,
)

from test_gtpop import weyl_dimension


def x(*exps):
    return tuple(exps)


# the only key of a rank-11 character, whose orbit has 12! = 479,001,600 keys
RANK11_KEY = tuple(range(11, -1, -1))


def is_dominant(key):
    """True for a weakly decreasing exponent tuple."""
    return all(map(operator.ge, key, key[1:]))


def all_pairs_product(a, b):
    """Reference product: one QPoly multiply per pair of terms, no symmetry."""
    data = {}
    b_terms = b.terms.items()
    for k1, p1 in a.terms.items():
        for k2, p2 in b_terms:
            key = tuple(map(operator.add, k1, k2))
            data[key] = data.get(key, QPoly.zero()) + p1 * p2
    return GradedCharacter(a.n, data)


def orbit_sums(n, *pairs):
    """Sum over (key, coeff) pairs of coeff times the orbit sum of key.

    Built by the constructor from every distinct permutation of each key.
    """
    return GradedCharacter(
        n,
        {
            perm: coeff
            for key, coeff in pairs
            for perm in set(itertools.permutations(key))
        },
    )


def orbit_sum(n, key, coeff=1):
    """coeff times the sum of x^perm over the distinct permutations of key."""
    return orbit_sums(n, (key, coeff))


def reference_homogeneous_sum(n, terms):
    """Reference for _homogeneous_sum: one QPoly multiply and add per dominant term."""
    data = {}
    degree = None
    for ch, coeff in terms:
        dominant = {k: p for k, p in ch.terms.items() if is_dominant(k)}
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
        shifted = ((tuple(e + shift for e in k), p) for k, p in dominant.items())
        charformulas._accumulate(data, ((k, p * coeff) for k, p in shifted))
    return charformulas._from_dominant(n, data)


class TestGradedCharacter:
    def test_rank_checks(self):
        with pytest.raises(RankMismatchError):
            GradedCharacter(2, {(1, 0): 1})
        with pytest.raises(RankMismatchError):
            GradedCharacter.one(2) + GradedCharacter.one(3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            GradedCharacter(1, {(-1, 0): 1})

    def test_float_exponent_rejected(self):
        with pytest.raises(TypeError):
            GradedCharacter(1, {(1.5, 0): 1})

    def test_float_rank_rejected(self):
        with pytest.raises(TypeError):
            GradedCharacter(2.0)

    def test_immutable(self):
        with pytest.raises(AttributeError, match="GradedCharacter is immutable"):
            GradedCharacter.one(1).n = 2
        with pytest.raises(AttributeError, match="GradedCharacter is immutable"):
            del GradedCharacter.one(1).n

    def test_cached_character_refuses_del(self):
        # qwhittaker_char hands every caller the same cached character
        lam = Weight(2, (1, 1))
        shared = qwhittaker_char(lam)
        terms, dominant = dict(shared.terms), shared._dominant
        # terms is a property, not a slot
        for attr in (*GradedCharacter.__slots__, "terms"):
            with pytest.raises(AttributeError, match="GradedCharacter is immutable"):
                delattr(shared, attr)
        assert qwhittaker_char(lam) is shared
        assert (shared.n, shared.terms, shared._dominant) == (2, terms, dominant)
        assert shared.q1_dimension() == 9

    def test_terms_is_a_read_only_view(self):
        ch = orbit_sum(2, (2, 1, 0), QPoly({0: 1, 1: 2}))
        # each read builds the view anew, with the same items
        assert ch.terms == ch.terms
        assert isinstance(ch.terms, MappingProxyType)
        with pytest.raises(TypeError):
            ch.terms[(0, 0, 3)] = QPoly.one()
        with pytest.raises(AttributeError, match="GradedCharacter is immutable"):
            ch.terms = {}
        with pytest.raises(AttributeError, match="GradedCharacter is immutable"):
            del ch.terms
        assert len(ch.terms) == 6

    def test_char_multiply_needs_characters(self):
        with pytest.raises(TypeError, match="expects two GradedCharacter operands"):
            char_multiply(GradedCharacter.one(1), 2)

    @pytest.mark.parametrize("coeff", [1.5, "x"])
    def test_non_polynomial_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError):
            GradedCharacter(1, {(1, 0): coeff})

    def test_zero_terms_dropped(self):
        ch = GradedCharacter(1, {(1, 0): QPoly.zero(), (0, 1): 0, (1, 1): 2})
        assert set(ch.terms) == {(1, 1)}

    def test_product(self):
        a = GradedCharacter(1, {(1, 0): 1, (0, 1): 1})
        sq = a * a
        assert sq.terms == {
            (2, 0): QPoly.one(),
            (1, 1): QPoly.const(2),
            (0, 2): QPoly.one(),
        }

    def test_det_twist(self):
        a = orbit_sum(1, (1, 0))
        assert a.det_twist(2).terms == {(3, 2): QPoly.one(), (2, 3): QPoly.one()}
        with pytest.raises(ValueError):
            a.det_twist(-1)

    def test_float_det_twist_rejected(self):
        with pytest.raises(TypeError):
            qwhittaker_char(Weight(2, (1, 1))).det_twist(1.5)

    def test_symmetry(self):
        # the constructor accepts a symmetric input and refuses any other
        sym = GradedCharacter(1, {(1, 0): QPoly.q(), (0, 1): QPoly.q()})
        assert sym._dominant == {(1, 0): QPoly.q()}
        # every key carries its sorted key's coefficient, but (0, 1, 2) is absent
        gap = set(itertools.permutations((2, 1, 0))) - {(0, 1, 2)}
        refused = [
            (1, {(1, 0): QPoly.q(), (0, 1): QPoly.one()}),
            (1, {(1, 0): 1}),
            (2, dict.fromkeys(gap, QPoly.q())),
            # orbits are counted, not listed: listing this one would take hours
            (11, {RANK11_KEY: 1}),
        ]
        for n, terms in refused:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^input is not a symmetric function$"):
                GradedCharacter(n, terms)
            assert time.perf_counter() - start < 1.0

    def test_cancelled_coefficients_leave_no_key(self):
        a = orbit_sum(1, (1, 0))
        b = orbit_sum(1, (2, 0)) - orbit_sum(1, (1, 1))
        # (x1 + x2)(x1^2 - x1 x2 + x2^2) = x1^3 + x2^3: the x1^2 x2 terms cancel
        assert (a * b).terms == {(3, 0): QPoly.one(), (0, 3): QPoly.one()}
        assert (a - a).terms == {}
        assert (a + -a).terms == {}
        assert (a * 0).terms == {}
        squares = {(2, 0): QPoly.one(), (0, 2): QPoly.one()}
        assert (b + orbit_sum(1, (1, 1))).terms == squares

    @pytest.mark.parametrize(
        "a,b",
        [
            (qwhittaker_char(Weight(1, (3,))), qwhittaker_char(Weight(1, (2,)))),
            (qwhittaker_char(Weight(2, (2, 1))), qwhittaker_char(Weight(2, (1, 2)))),
            (qwhittaker_char(Weight(2, (2, 2))), qwhittaker_char(Weight(2, (2, 2)))),
            (
                qwhittaker_char(Weight(3, (1, 0, 1))),
                qwhittaker_char(Weight(3, (0, 2, 0))),
            ),
            (
                qwhittaker_char(Weight(4, (1, 0, 0, 1))),
                qwhittaker_char(Weight(4, (0, 1, 1, 0))),
            ),
            (truncated_char(Weight(2, (2, 2)), 1), qwhittaker_char(Weight(2, (1, 0)))),
            # (x1 + x2)(x1^2 - x1 x2 + x2^2) = x1^3 + x2^3: the x1^2 x2 terms cancel
            (orbit_sum(1, (1, 0)), orbit_sum(1, (2, 0)) - orbit_sum(1, (1, 1))),
            (
                qwhittaker_char(Weight(2, (1, 0))) - qwhittaker_char(Weight(2, (0, 1))),
                qwhittaker_char(Weight(2, (1, 1))),
            ),
            (GradedCharacter.zero(2), qwhittaker_char(Weight(2, (1, 1)))),
            (GradedCharacter.one(2), qwhittaker_char(Weight(2, (2, 1)))),
            (GradedCharacter.one(3), GradedCharacter.zero(3)),
        ],
        ids=[
            "rank1",
            "rank2",
            "rank2-square",
            "rank3",
            "rank4",
            "truncated",
            "cancelling",
            "difference",
            "zero",
            "one",
            "one-zero",
        ],
    )
    def test_symmetric_product_matches_all_pairs(self, a, b):
        expected = all_pairs_product(a, b)
        assert a * b == expected
        assert b * a == expected

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_symmetric_products(self, data):
        n = data.draw(st.integers(1, 3))
        keys = st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1).map(
            lambda parts: tuple(sorted(parts, reverse=True))
        )
        coeffs = st.dictionaries(st.integers(0, 1), st.integers(-3, 3), max_size=2)

        def draw_symmetric():
            ch = GradedCharacter.zero(n)
            for _ in range(data.draw(st.integers(0, 4))):
                ch = ch + orbit_sum(n, data.draw(keys), QPoly(data.draw(coeffs)))
            return ch

        a, b = draw_symmetric(), draw_symmetric()
        assert a * b == all_pairs_product(a, b)

    def test_specializations(self):
        ch = orbit_sum(1, (1, 1), QPoly({0: 1, 1: 1}))
        ch = ch + orbit_sum(1, (2, 0), QPoly({1: 3}))
        assert ch.q1_dimension() == 8
        assert ch.specialize_q0().terms == {(1, 1): QPoly.one()}
        assert ch.total_degree() == 2


# Plain-dict references for the character operations: a character is
# {key: {power: nonzero int}}, and no QPoly or GradedCharacter arithmetic runs.


def plain(ch):
    """The terms of ch as plain dicts."""
    return {k: {i: c for i, c in enumerate(p.coeffs) if c} for k, p in ch.terms.items()}


def plain_poly_mul(p, r):
    out = {}
    for i, c in p.items():
        for j, d in r.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return {i: c for i, c in out.items() if c}


def plain_sum(pairs):
    """{key: poly} of the (key, poly) pairs added up, cancelled entries dropped."""
    out = {}
    for key, poly in pairs:
        acc = out.setdefault(key, {})
        for i, c in poly.items():
            acc[i] = acc.get(i, 0) + c
    out = {k: {i: c for i, c in p.items() if c} for k, p in out.items()}
    return {k: p for k, p in out.items() if p}


def plain_scale(a, poly):
    return plain_sum((k, plain_poly_mul(p, poly)) for k, p in a.items())


def plain_product(a, b):
    return plain_sum(
        (tuple(map(operator.add, k1, k2)), plain_poly_mul(p1, p2))
        for k1, p1 in a.items()
        for k2, p2 in b.items()
    )


class TestOperationsOnDominantTerms:
    """Every operation maps dominant terms; the references map every term."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_operations_match_plain_references(self, data):
        n = data.draw(st.integers(1, 3))
        keys = st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1).map(
            lambda parts: tuple(sorted(parts, reverse=True))
        )
        # a second band reaches beyond +-2**64, so the packed sums behind
        # *, unary - and - run on slots wider than any machine integer
        wide = st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
        small = st.integers(-3, 3)
        polys = st.one_of(
            st.dictionaries(st.integers(0, 2), band, max_size=3)
            for band in (small, small | wide)
        )

        def draw_plain():
            # orbit sums of a few dominant keys, possibly none
            dominant = data.draw(st.dictionaries(keys, polys, max_size=3))
            return plain_sum(
                (perm, poly)
                for key, poly in dominant.items()
                for perm in set(itertools.permutations(key))
            )

        def build(terms):
            ch = GradedCharacter(n, {k: QPoly(p) for k, p in terms.items()})
            # an operation's result half the time: the same character
            return ch + GradedCharacter.zero(n) if data.draw(st.booleans()) else ch

        a = draw_plain()
        how = data.draw(
            st.sampled_from(("drawn", "negated", "same", "twisted", "zero"))
        )
        if how == "drawn":
            b = draw_plain()
        elif how == "negated":
            # a + b cancels to zero
            b = plain_scale(a, {0: -1})
        elif how == "twisted":
            # b is a det_twist of a: a sum of the two twisted to one degree
            # would cancel in cb - ca
            b = {tuple(e + 1 for e in k): p for k, p in a.items()}
        else:
            b = dict(a) if how == "same" else {}
        scalar = data.draw(st.one_of(small, wide, polys.map(QPoly)))
        if isinstance(scalar, int):
            plain_scalar = {0: scalar}
        else:
            plain_scalar = {i: c for i, c in enumerate(scalar.coeffs) if c}
        twist = data.draw(st.integers(0, 2))
        ca, cb = build(a), build(b)

        results = [
            (ca + cb, plain_sum([*a.items(), *b.items()])),
            (ca - cb, plain_sum([*a.items(), *plain_scale(b, {0: -1}).items()])),
            (cb - ca, plain_sum([*b.items(), *plain_scale(a, {0: -1}).items()])),
            (-ca, plain_scale(a, {0: -1})),
            (ca * scalar, plain_scale(a, plain_scalar)),
            (scalar * ca, plain_scale(a, plain_scalar)),
            (ca * cb, plain_product(a, b)),
            (
                ca.det_twist(twist),
                {tuple(e + twist for e in k): p for k, p in a.items()},
            ),
            (ca.specialize_q0(), {k: {0: p[0]} for k, p in a.items() if p.get(0)}),
        ]
        for result, expected in results:
            assert plain(result) == expected
            assert result._dominant == charformulas._dominant_terms(result.terms)
            assert isinstance(result.terms, MappingProxyType)
        degrees = {sum(k) for k in a}
        assert ca.total_degree() == (degrees.pop() if len(degrees) == 1 else None)
        # - twists neither side: a difference keeps both total degrees
        da, db = ca.total_degree(), cb.total_degree()
        if None not in (da, db) and da != db:
            assert {sum(k) for k in (ca - cb).terms} == {da, db}
        assert ca.q1_dimension() == sum(sum(p.values()) for p in a.values())
        assert (ca == cb) is (a == b)
        assert (cb == ca) is (a == b)
        assert ca._dominant == charformulas._dominant_terms(ca.terms)


def dominant_keys(n, top):
    """Every weakly decreasing (n+1)-tuple with entries in 0..top."""
    keys = itertools.product(range(top + 1), repeat=n + 1)
    return sorted({tuple(sorted(k, reverse=True)) for k in keys})


class TestSymmetricProduct:
    """Products of two symmetric characters on the dominant cone."""

    @pytest.mark.parametrize("n,top", [(1, 3), (2, 3), (3, 3), (4, 2)])
    def test_structure_constants_match_orbit_pair_count(self, n, top):
        keys = dominant_keys(n, top)
        orbits = {key: set(itertools.permutations(key)) for key in keys}
        monomials = {key: orbit_sum(n, key) for key in keys}
        # every ordered pair, so each pair of distinct orbit sizes is walked
        # from its smaller orbit once with either key on the left
        assert len({len(orbit) for orbit in orbits.values()}) > 1
        for d, e in itertools.product(keys, repeat=2):
            count = Counter(
                tuple(map(operator.add, alpha, beta))
                for alpha in orbits[d]
                for beta in orbits[e]
            )
            product = monomials[d] * monomials[e]
            assert dict(product.terms) == {k: QPoly.const(c) for k, c in count.items()}

    def test_coefficients_wider_than_eight_bytes(self):
        # N(a) * M(b) = 3 * 2^70 and N(b) * M(a) = 2^71 both need 10-byte
        # slots, and the x1 x2 coefficient 2^71 does not fit in 9
        big = 2**70
        a = orbit_sum(1, (1, 0), big) - orbit_sum(1, (1, 1), QPoly({1: big}))
        b = orbit_sum(1, (1, 0))
        expected = (
            orbit_sum(1, (2, 0), big)
            + orbit_sum(1, (1, 1), 2 * big)
            - orbit_sum(1, (2, 1), QPoly({1: big}))
        )
        for left, right in ((a, b), (b, a), (a, -b)):
            assert left * right == all_pairs_product(left, right)
        assert a * b == expected
        assert a * -b == -expected

    def test_square_bound_reads_one_factor_term(self, monkeypatch):
        # N(a) * N(b) = 3^40 would need 9-byte slots; N(a) * M(a) fits in 8
        ch = qwhittaker_char(Weight(2, (10, 10)))
        widths = set()

        def spy(coeffs, width):
            widths.add(width)
            return qalg._signed_value(coeffs, width)

        monkeypatch.setattr(charformulas, "_signed_value", spy)
        square = ch * ch
        assert widths == {8}
        assert square.q1_dimension() == 3**40

    def test_product_with_cancelled_terms(self):
        w = qwhittaker_char(Weight(2, (2, 1)))
        zero = w - w
        for product in (zero * w, w * zero):
            assert product.terms == {}
            assert product == GradedCharacter.zero(2)
        # (x1 + x2)(x1^4 - x1^3 x2 + x1^2 x2^2 - x1 x2^3 + x2^4) = x1^5 + x2^5,
        # scaled by (1 - q) * 2^70: the values at (4, 1) and (3, 2) sum to 0
        scale = QPoly({0: 2**70, 1: -(2**70)})
        alternating = GradedCharacter(1, {(4 - i, i): (-1) ** i for i in range(5)})
        product = orbit_sum(1, (1, 0), scale) * alternating
        assert product.terms == {(5, 0): scale, (0, 5): scale}


class ScanCalled(Exception):
    """Raised by a stand-in for the symmetry scan."""


class TestCarriedDominantTerms:
    """Every character carries its dominant terms."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equality_is_equality_of_terms(self, data):
        n = data.draw(st.integers(1, 3))
        weights = st.tuples(*(st.integers(0, 2) for _ in range(n))).map(
            lambda coeffs: Weight(n, coeffs)
        )

        def draw_fill():
            kind = data.draw(
                st.sampled_from(("weyl", "product", "truncated")[: 2 + (n >= 2)])
            )
            if kind == "weyl":
                return qwhittaker_char(data.draw(weights))
            if kind == "product":
                return qwhittaker_char(data.draw(weights)) * qwhittaker_char(
                    data.draw(weights)
                )
            a, b = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
            lam = Weight(n, (a,) + (0,) * (n - 2) + (b,))
            return truncated_char(lam, data.draw(st.integers(0, min(a, b))))

        def draw_variant(ch):
            how = data.draw(st.sampled_from(("fill", "copy", "near-fill", "near-copy")))
            if how == "fill":
                return ch
            if how == "copy":
                return GradedCharacter(n, dict(ch.terms))
            sign = data.draw(st.sampled_from((1, -1)))
            bump = QPoly({data.draw(st.integers(0, 3)): sign})
            if how == "near-fill":
                # the orbit of one dominant key shifted by +-q^k, as a sum's result
                dominant = sorted(k for k in ch.terms if is_dominant(k))
                key = data.draw(st.sampled_from(dominant))
                terms = [(ch, QPoly.one()), (orbit_sum(n, key), bump)]
                return _homogeneous_sum(n, terms)
            # the orbit of any key shifted by +-q^k, through the constructor
            key = data.draw(st.sampled_from(sorted(ch.terms)))
            terms = dict(ch.terms)
            for perm in set(itertools.permutations(key)):
                terms[perm] = terms[perm] + bump
            return GradedCharacter(n, terms)

        base = draw_fill()
        a = draw_variant(base)
        b = draw_variant(base if data.draw(st.booleans()) else draw_fill())
        same = dict(a.terms) == dict(b.terms)
        assert (a == b) is same
        assert (b == a) is same

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_q1_dimension_from_dominant_terms(self, data):
        # q1_dimension adds one coefficient per orbit, times the orbit's
        # size; the sum over every term is the reference
        n = data.draw(st.integers(1, 3))
        weights = st.tuples(*(st.integers(0, 2) for _ in range(n))).map(
            lambda coeffs: Weight(n, coeffs)
        )
        polys = st.dictionaries(st.integers(0, 2), st.integers(-3, 3), max_size=3)
        a = qwhittaker_char(data.draw(weights))
        kind = data.draw(st.sampled_from(("weyl", "product", "sum")))
        if kind == "weyl":
            ch = a
        elif kind == "product":
            ch = a * qwhittaker_char(data.draw(weights))
        else:
            # det twists keep each degree gap a multiple of n + 1, and the
            # first term is the most twisted, as the sum twists up to it
            twists = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
            terms = [
                (a.det_twist(c), QPoly(data.draw(polys)))
                for c in sorted(twists, reverse=True)
            ]
            ch = _homogeneous_sum(n, terms)
        assert ch._dominant is not None
        reference = sum(p.at_one() for p in ch.terms.values())
        assert ch.q1_dimension() == reference
        assert GradedCharacter(n, dict(ch.terms)).q1_dimension() == reference

    def test_peel_copies_carried_terms(self):
        # qwhittaker_char(w) is cached and carries its dominant terms: a peel
        # that wrote to them would spoil every later character of that row
        w = Weight(2, (2, 1))
        row = weight_to_bounding_partition(w).padded(3)
        width = _row_width(row)
        memo = dict(_row_dominant_terms(row, width))
        terms = dict(qwhittaker_char(w).terms)
        for _ in range(2):
            assert decompose_weyl_basis(qwhittaker_char(w)) == [(w, QPoly.one())]
        assert _row_dominant_terms(row, width) == memo
        assert qwhittaker_char(w).terms == terms

    def test_orbit_fills_skip_the_scan(self, monkeypatch):
        a = qwhittaker_char(Weight(2, (2, 1)))
        b = truncated_char(Weight(2, (1, 1)), 1)
        theta = qwhittaker_char(Weight(2, (1, 1)))
        expected = all_pairs_product(a, b)
        expected_sum = expected + all_pairs_product(theta, a) * QPoly.q()

        def no_scan(terms):
            raise ScanCalled

        monkeypatch.setattr(charformulas, "_dominant_terms", no_scan)
        product = a * b
        assert product == expected
        assert a == qwhittaker_char(Weight(2, (2, 1)))
        assert not a == b
        total = _homogeneous_sum(2, [(product, QPoly.one()), (theta * a, QPoly.q())])
        assert total == expected_sum
        # so do sums, differences, negation, scaling, twists and q = 0
        assert total - product == theta * a * QPoly.q()
        assert -(total + product) == (total + product) * -1
        assert total.det_twist(1).specialize_q0() == (
            a.specialize_q0() * b.specialize_q0()
        ).det_twist(1)
        # constructor input is scanned
        with pytest.raises(ScanCalled):
            GradedCharacter(2, a.terms)


class OrbitListed(Exception):
    """Raised by a stand-in for _orbit."""


def refuse_orbits(monkeypatch):
    """Make charformulas._orbit raise OrbitListed for the rest of the test."""

    def refuse(key):
        raise OrbitListed(key)

    monkeypatch.setattr(charformulas, "_orbit", refuse)


class TestOrbitsListedOnlyWhereWalked:
    """Only products and the terms view list orbits.

    Every other operation counts them, so each test here but the last runs
    with _orbit refusing.
    """

    def test_uncached_build(self, monkeypatch):
        refuse_orbits(monkeypatch)
        lam = Weight(3, (2, 1, 2))
        _partition_char_cached.cache_clear()
        ch = qwhittaker_char(lam)
        assert _partition_char_cached.cache_info().misses == 1
        # dim W(lam) = prod_i C(4, i)^{lam_i}
        assert ch.q1_dimension() == 4**2 * 6 * 4**2
        size = sum(len(set(itertools.permutations(d))) for d in ch._dominant)
        assert repr(ch) == "GradedCharacter(3, %d terms)" % size

    def test_operations(self, monkeypatch):
        refuse_orbits(monkeypatch)
        q = QPoly.q()
        a = orbit_sums(2, ((2, 1, 0), QPoly({0: 1, 1: 2})), ((1, 1, 1), 3))
        b = orbit_sums(2, ((2, 1, 0), -1), ((3, 0, 0), q))
        assert a.q1_dimension() == 6 * 3 + 3
        assert repr(a) == "GradedCharacter(2, 7 terms)"
        assert a == orbit_sums(2, ((1, 1, 1), 3), ((2, 1, 0), QPoly({0: 1, 1: 2})))
        assert not a == b
        assert a + b == orbit_sums(
            2, ((2, 1, 0), QPoly({1: 2})), ((1, 1, 1), 3), ((3, 0, 0), q)
        )
        assert a - b == orbit_sums(
            2, ((2, 1, 0), QPoly({0: 2, 1: 2})), ((1, 1, 1), 3), ((3, 0, 0), -q)
        )
        assert -b == orbit_sums(2, ((2, 1, 0), 1), ((3, 0, 0), -q))
        assert a * 2 == 2 * a == orbit_sums(
            2, ((2, 1, 0), QPoly({0: 2, 1: 4})), ((1, 1, 1), 6)
        )
        assert b * q == orbit_sums(2, ((2, 1, 0), -q), ((3, 0, 0), q * q))
        assert a.det_twist(1) == orbit_sums(
            2, ((3, 2, 1), QPoly({0: 1, 1: 2})), ((2, 2, 2), 3)
        )
        assert b.specialize_q0() == orbit_sums(2, ((2, 1, 0), -1))

    def test_closed_form_sum_and_peel(self, monkeypatch):
        # the reference values, products among them, are taken before _orbit
        # refuses
        lam = Weight(2, (1, 1))
        weyl, trivial = qwhittaker_char(lam), qwhittaker_char(Weight(2, (0, 0)))
        terms = [(weyl, 1), (trivial, -QPoly.q())]
        expected_sum = truncated_char(lam, 1)
        product = qwhittaker_char(Weight(2, (2, 1))) * weyl
        expected_peel = decompose_weyl_basis(product)
        refuse_orbits(monkeypatch)
        assert _homogeneous_sum(2, terms) == expected_sum
        assert decompose_weyl_basis(product) == expected_peel

    @pytest.mark.parametrize("length", range(1, 8))
    def test_orbit_size_counts_the_orbit(self, length):
        for key in itertools.combinations_with_replacement(range(3, -1, -1), length):
            assert _orbit_size(key) == len(_orbit(key))


class TestQWhittaker:
    def test_rank1_frozen(self):
        ch = qwhittaker_char(Weight(1, (2,)))
        assert ch.terms == {
            (2, 0): QPoly.one(),
            (1, 1): QPoly({0: 1, 1: 1}),
            (0, 2): QPoly.one(),
        }

    def test_first_fundamental_is_qfree_sum(self):
        # at rank 11 the one dominant key (1, 0, ..., 0) has 12 permutations
        # among its 12! orderings
        for n in (1, 2, 3, 11):
            ch = qwhittaker_char(Weight.fundamental(n, 1))
            assert len(ch.terms) == n + 1
            assert all(p == QPoly.one() for p in ch.terms.values())

    def test_requires_dominant(self):
        with pytest.raises(ValueError):
            qwhittaker_char(Weight(2, (1, -1)))
        # so do both oracles
        with pytest.raises(ValueError, match="POP characters require a dominant"):
            pop_char(Weight(2, (-1, 1)))
        with pytest.raises(ValueError, match="irreducible characters require"):
            irreducible_char(Weight(2, (-1, 1)))

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError, match="rank must be a positive integer"):
            qwhittaker_partition_char((1,), 0)

    def test_det_column_invariance(self):
        # adding a full column multiplies by the determinant, q-structure fixed
        base = qwhittaker_partition_char(Partition((2, 1)), 2)
        twisted = qwhittaker_partition_char(Partition((3, 2, 1)), 2)
        assert base.det_twist(1) == twisted

    def test_symmetric(self):
        # the constructor, which refuses nonsymmetric input, accepts its terms
        ch = qwhittaker_char(Weight(2, (2, 1)))
        assert GradedCharacter(2, dict(ch.terms)) == ch

    def test_float_rank_rejected(self):
        # the rank is read before the cache lookup, so a warm cache answers
        # no differently from a cold one
        qwhittaker_partition_char((1,), 2)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            qwhittaker_partition_char((1,), 2.0)

    def test_too_many_parts(self):
        qwhittaker_partition_char((1, 1, 1), 2)
        with pytest.raises(RankMismatchError, match="4 rows does not fit in 3"):
            qwhittaker_partition_char((1, 1, 1, 1), 2)

    @pytest.mark.parametrize(
        "key",
        [(5,), (2, 2, 2), (3, 2, 1, 0), (2, 2, 1, 1, 0, 0), (1,) + (0,) * 11],
    )
    def test_orbit_is_the_distinct_permutations(self, key):
        # a permutation per multiset arrangement and no repeats; the memo
        # visits only sub-multisets of key, never all len(key)! orderings
        counts = Counter(key).values()
        _orbit.cache_clear()
        orbit = _orbit(key)
        assert len(orbit) == len(set(orbit)) == math.factorial(len(key)) // math.prod(
            math.factorial(m) for m in counts
        )
        assert all(tuple(sorted(p, reverse=True)) == key for p in orbit)
        assert _orbit.cache_info().misses <= math.prod(m + 1 for m in counts)

    def test_memoised_terms_are_read_only(self):
        lam = Weight(2, (1, 1))
        terms = qwhittaker_char(lam).terms
        with pytest.raises(TypeError):
            terms[x(0, 0, 0)] = QPoly.one()
        with pytest.raises(AttributeError):
            terms.clear()
        again = qwhittaker_char(lam)
        assert len(again.terms) == 7
        assert again == pop_char(lam)
        assert GradedCharacter(2, terms) == again

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_branching_matches_pop_oracle(self, data):
        n = data.draw(st.integers(1, 4))
        budget = {1: 6, 2: 4, 3: 3, 4: 3}[n]
        lam = Weight(
            n,
            data.draw(
                st.tuples(*(st.integers(0, budget) for _ in range(n))).filter(
                    lambda c: sum(c) <= budget
                )
            ),
        )
        ch = qwhittaker_partition_char(weight_to_bounding_partition(lam), n)
        assert ch == pop_char(lam)
        assert ch.q1_dimension() == pop_count(lam)

    def test_pop_oracle_grid_ranks_4_and_5(self):
        # every dominant weight at rank 4 with coefficient sum <= 3 and at
        # rank 5 with sum <= 2; the verify suite's grid stays narrower
        weights = [
            Weight(n, coeffs)
            for n, budget in ((4, 3), (5, 2))
            for coeffs in itertools.product(range(budget + 1), repeat=n)
            if sum(coeffs) <= budget
        ]
        assert len(weights) == 56
        for lam in weights:
            ch = qwhittaker_char(lam)
            assert ch == pop_char(lam), lam
            assert ch.q1_dimension() == pop_count(lam), lam

    def test_pop_char_uses_no_branching_piece(self, monkeypatch):
        # the oracle builds no POP object and leans on nothing it checks
        def forbidden(*args):
            raise AssertionError("pop_char reached a branching-route helper")

        for name in (
            "q_binomial", "_packed_binomial", "_branches", "_row_dominant_terms"
        ):
            monkeypatch.setattr(charformulas, name, forbidden)
        monkeypatch.setattr(gtpop.POP, "__init__", forbidden)
        lam = Weight(3, (2, 0, 1))
        assert pop_char(lam).q1_dimension() == pop_count(lam) == 64

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_det_twist_invariance(self, data):
        n = data.draw(st.integers(1, 3))
        gaps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        last = data.draw(st.integers(1, 3))
        # row with n+1 positive parts: last, last + gaps[-1], ...
        row = [last]
        for gap in reversed(gaps):
            row.insert(0, row[0] + gap)
        base = qwhittaker_partition_char(Partition([r - last for r in row]), n)
        assert qwhittaker_partition_char(Partition(row), n) == base.det_twist(last)

    @pytest.mark.parametrize(
        "coeffs,n",
        [((3,), 1), ((1, 1), 2), ((2, 0), 2), ((0, 2), 2), ((1, 0, 1), 3)],
    )
    def test_matches_pop_char(self, coeffs, n):
        lam = Weight(n, coeffs)
        assert qwhittaker_char(lam) == pop_char(lam)

    @pytest.mark.parametrize(
        "coeffs,n",
        [((2,), 1), ((1, 1), 2), ((2, 1), 2), ((1, 0, 1), 3)],
    )
    def test_q1_dimension_is_product_formula(self, coeffs, n):
        lam = Weight(n, coeffs)
        assert qwhittaker_char(lam).q1_dimension() == pop_count(lam)

    @pytest.mark.parametrize(
        "coeffs,n",
        [((2,), 1), ((1, 1), 2), ((2, 1), 2), ((1, 0, 1), 3)],
    )
    def test_q0_is_irreducible(self, coeffs, n):
        lam = Weight(n, coeffs)
        irr = irreducible_char(lam)
        assert qwhittaker_char(lam).specialize_q0() == irr
        assert irr.q1_dimension() == weyl_dimension(lam)

    def test_multiplicities_fall_along_dominance(self):
        # at q = 1 a dominant key d below e (each partial sum of d at most
        # that of e) has at least e's multiplicity; a peel bound read off
        # the flattest key would rest on this. Every dominant weight at
        # ranks 1-4 with coefficient sum <= 8, 5, 3 and 2, and three larger
        weights = [
            Weight(n, coeffs)
            for n, budget in ((1, 8), (2, 5), (3, 3), (4, 2))
            for coeffs in itertools.product(range(budget + 1), repeat=n)
            if sum(coeffs) <= budget
        ] + [Weight(3, (3, 3, 3)), Weight(4, (2, 2, 2, 2)), Weight(2, (12, 12))]
        assert len(weights) == 68
        pairs = 0
        for lam in weights:
            mult = {
                key: p.at_one()
                for key, p in qwhittaker_char(lam).terms.items()
                if list(key) == sorted(key, reverse=True)
            }
            sums = {key: list(itertools.accumulate(key)) for key in mult}
            for d, e in itertools.permutations(mult, 2):
                if all(a <= b for a, b in zip(sums[d], sums[e])):
                    pairs += 1
                    assert mult[d] >= mult[e], (lam, d, e)
        assert pairs == 4737


class TestPieri:
    def test_empty_mu(self):
        # P_(m) itself: phi = 1/(q;q)_m, so product_onerow gives 1
        assert product_onerow(2, Partition(()), 1) == [(Partition((2,)), QPoly.one())]

    def test_zero_strip(self):
        assert product_onerow(0, Partition((2, 1)), 2) == [
            (Partition((2, 1)), QPoly.one())
        ]

    def test_frozen_expansion(self):
        got = {
            lam.parts: poly for lam, poly in product_onerow(2, Partition((2, 1)), 2)
        }
        assert got == {
            (4, 1): QPoly.one(),
            (3, 2): QPoly({0: 1, 2: -1}),
            (3, 1, 1): QPoly({0: 1, 2: -1}),
            (2, 2, 1): QPoly({0: 1, 1: -1, 2: -1, 3: 1}),
        }

    def test_strip_order_descending(self):
        lams = [lam.padded(3) for lam, _ in product_onerow(2, Partition((2, 1)), 2)]
        assert lams == sorted(lams, reverse=True)

    def test_rectangle_coefficients(self):
        # mu = (k,...,k,0): coefficient of the i-th corner shape is
        # [k i]_q [m i]_q (q;q)_i
        from weylchar import q_pochhammer

        k, m, n = 3, 3, 2
        mu = Partition((k,) * n)
        got = {lam.parts: poly for lam, poly in product_onerow(m, mu, n)}
        for i in range(min(m, k) + 1):
            lam = tuple(
                [k + m - i] + [k] * (n - 1) + ([i] if i else [])
            )
            expected = q_binomial(k, i) * q_binomial(m, i) * q_pochhammer(i)
            assert got[lam] == expected

    def test_too_many_rows(self):
        with pytest.raises(RankMismatchError):
            product_onerow(1, Partition((1, 1, 1)), 1)

    def test_negative_strip_rejected(self):
        with pytest.raises(ValueError, match="strip size must be nonnegative"):
            product_onerow(-1, (1,), 2)

    def test_float_rank_rejected(self):
        product_onerow(1, Partition((1,)), 2)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            product_onerow(1, Partition((1,)), 2.0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_brute_product(self, rank, m):
        mus = [Partition(p) for p in [(), (1,), (2,), (2, 1), (3, 1)]]
        if rank >= 3:
            # every row of mu nonzero, parts <= 3: a gap of 2 between rows
            # i-1 and i makes the row-i factor of the coefficient a
            # nontrivial q-binomial, for every i up to rank+1
            mus += [
                Partition(p)
                for p in itertools.combinations_with_replacement((3, 2, 1), rank + 1)
            ]
        row = qwhittaker_partition_char(Partition((m,)), rank)
        for mu in mus:
            if mu.length() > rank + 1:
                continue
            lhs = char_multiply(qwhittaker_partition_char(mu, rank), row)
            rhs = GradedCharacter.zero(rank)
            for lam, poly in product_onerow(m, mu, rank):
                rhs = rhs + qwhittaker_partition_char(lam, rank) * poly
            assert lhs == rhs


class TestTensorFundamental:
    def test_bad_variant(self):
        with pytest.raises(ValueError):
            tensor_char_fundamental("omega2_omega2", 1, 1, 2)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError, match="module parameters must be nonnegative"):
            tensor_char_fundamental("omega1_omegan", -1, 1, 2)

    @pytest.mark.parametrize("rank", [0, -1])
    @pytest.mark.parametrize("variant", ["omega1_omegan", "omega1_omega1", "omegan_omegan"])
    def test_rank_must_be_positive(self, rank, variant):
        # not "fundamental weight index out of range" from the factor weights
        for build in (tensor_factors, tensor_char_fundamental):
            with pytest.raises(ValueError, match="rank must be a positive integer"):
                build(variant, 1, 1, rank)

    def test_collapses_to_single_factor(self):
        assert tensor_char_fundamental("omega1_omega1", 2, 0, 2) == qwhittaker_char(
            Weight(2, (2, 0))
        )

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("variant", ["omega1_omegan", "omega1_omega1", "omegan_omegan"])
    def test_raw_product_equality(self, rank, variant):
        pairs = {"omega1_omegan": (1, rank), "omega1_omega1": (1, 1),
                 "omegan_omegan": (rank, rank)}[variant]
        for m, k in itertools.product(range(4), repeat=2):
            lhs = char_multiply(
                qwhittaker_char(m * Weight.fundamental(rank, pairs[0])),
                qwhittaker_char(k * Weight.fundamental(rank, pairs[1])),
            )
            assert lhs == tensor_char_fundamental(variant, m, k, rank)

    def test_rank1_degenerate(self):
        # all variants coincide at rank 1 where omega_n = omega_1
        for m, k in itertools.product(range(4), repeat=2):
            lhs = char_multiply(
                qwhittaker_char(Weight(1, (m,))), qwhittaker_char(Weight(1, (k,)))
            )
            for variant in ("omega1_omegan", "omega1_omega1", "omegan_omegan"):
                assert lhs == tensor_char_fundamental(variant, m, k, 1)


@functools.cache
def keys_of_degree(n, degree):
    """Every weakly decreasing (n+1)-tuple of nonnegative entries adding up to degree."""
    return [key for key in dominant_keys(n, degree) if sum(key) == degree]


class TestHomogeneousSum:
    def test_twists_up_to_first_degree(self):
        theta, trivial = qwhittaker_char(Weight(2, (1, 1))), GradedCharacter.one(2)
        total = _homogeneous_sum(2, [(theta, QPoly.one()), (trivial, QPoly.q())])
        assert total == theta + GradedCharacter(2, {(1, 1, 1): QPoly.q()})

    def test_zero_coefficient_contributes_nothing(self):
        ch = qwhittaker_char(Weight(2, (1, 0)))
        assert _homogeneous_sum(2, [(ch, QPoly.zero())]).is_zero()
        assert _homogeneous_sum(2, []).is_zero()

    def test_nonsymmetric_term_rejected(self):
        # no sum meets a nonsymmetric term: the constructor refuses it
        with pytest.raises(ValueError, match="^input is not a symmetric function$"):
            GradedCharacter(2, {(2, 1, 0): 1})

    @pytest.mark.parametrize("second", [(1, 0), (2, 1)])
    def test_gap_must_be_nonnegative_multiple(self, second):
        # degrees 3 then 1 (a gap of 2), or 3 then 4 (a gap of -1)
        terms = [(qwhittaker_char(Weight(2, w)), QPoly.one()) for w in ((1, 1), second)]
        with pytest.raises(ArithmeticError):
            _homogeneous_sum(2, terms)

    def test_non_polynomial_coefficient_rejected(self):
        theta = qwhittaker_char(Weight(2, (1, 1)))
        with pytest.raises(TypeError):
            _homogeneous_sum(2, [(theta, QPoly.one()), (theta, 1.5)])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        n = data.draw(st.integers(1, 3))
        pool = keys_of_degree(n, data.draw(st.integers(n + 1, 2 * n + 2)))
        polys = st.dictionaries(st.integers(0, 2), st.integers(-3, 3), max_size=3)
        coeffs = st.one_of(st.integers(-3, 3), polys.map(QPoly))

        def draw_term():
            # keys with at least `shift` in every entry, divided by det^shift
            shift = data.draw(st.integers(0, 1))
            chosen = data.draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
            dominant = {}
            for key in chosen:
                poly = QPoly(data.draw(polys))
                if poly and min(key) >= shift:
                    dominant[tuple(e - shift for e in key)] = poly
            ch = charformulas._from_dominant(n, dominant)
            if data.draw(st.booleans()):
                # the same character through the constructor
                ch = GradedCharacter(n, dict(ch.terms))
            return ch, data.draw(coeffs)

        terms = [draw_term() for _ in range(data.draw(st.integers(0, 4)))]
        # an earlier term again with its coefficient negated cancels it
        # exactly; with every term repeated so, the whole sum cancels
        for ch, coeff in list(terms):
            if data.draw(st.booleans()):
                terms.insert(data.draw(st.integers(0, len(terms))), (ch, -coeff))
        if data.draw(st.integers(0, 4)) == 0:
            # a degree-1 orbit sum, below every pool degree: the sum raises
            # ArithmeticError unless its gap to the first term is a multiple
            # of n + 1
            low = orbit_sum(n, (1,) + (0,) * n)
            terms.insert(data.draw(st.integers(0, len(terms))), (low, 1))

        def outcome(sum_of):
            try:
                total = sum_of(n, terms)
            except ArithmeticError as exc:
                return type(exc)
            assert total._dominant is not None
            return dict(total.terms)

        assert outcome(_homogeneous_sum) == outcome(reference_homogeneous_sum)

    def test_coefficients_wider_than_eight_bytes(self):
        # the bound 2^70 + 2^71 + 2^70 = 2^72 needs 10-byte slots, and the
        # x1^2 coefficient 2^71 does not fit in 9; the constant character
        # is det-twisted up to (1, 1)
        big = 2**70
        fill = functools.partial(charformulas._from_dominant, 1)
        terms = [
            (fill({(2, 0): QPoly.one(), (1, 1): QPoly.const(-1)}), big),
            (fill({(2, 0): QPoly.one()}), QPoly({0: big, 1: -big})),
            (GradedCharacter.one(1), QPoly({1: big})),
        ]
        expected = orbit_sum(1, (2, 0), QPoly({0: 2 * big, 1: -big})) + orbit_sum(
            1, (1, 1), QPoly({0: -big, 1: big})
        )
        assert _homogeneous_sum(1, terms) == expected
        assert _homogeneous_sum(1, [(ch, -c) for ch, c in terms]) == -expected
        assert _homogeneous_sum(1, terms) == reference_homogeneous_sum(1, terms)
        # each term again with its coefficient negated: nothing is left
        cancelled = terms + [(ch, -c) for ch, c in terms]
        assert _homogeneous_sum(1, cancelled).terms == {}


class TestTruncated:
    def test_rank_enforced(self):
        with pytest.raises(RankMismatchError):
            truncated_char(Weight(1, (2,)), 0)
        # the weight must lie on omega_1 and omega_n
        with pytest.raises(ValueError):
            truncated_char(Weight(3, (1, 1, 1)), 0)

    def test_j_range(self):
        with pytest.raises(ValueError):
            truncated_char(Weight(2, (2, 1)), 2)
        with pytest.raises(ValueError):
            truncated_char(Weight(2, (2, 1)), -1)

    def test_requires_dominant(self):
        with pytest.raises(ValueError, match="the highest weight must be dominant"):
            truncated_char(Weight(2, (-1, 1)), 0)

    def test_j0_is_local(self):
        for lam in (Weight(2, (2, 1)), Weight(3, (2, 0, 1))):
            assert truncated_char(lam, 0) == qwhittaker_char(lam)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_coefficients_nonnegative(self, rank):
        om1, omn = Weight.fundamental(rank, 1), Weight.fundamental(rank, rank)
        for a, b in itertools.product(range(4), repeat=2):
            for j in range(min(a, b) + 1):
                ch = truncated_char(a * om1 + b * omn, j)
                assert all(
                    c >= 0 for poly in ch.terms.values() for c in poly.coefficient_list()
                )

    def test_frozen_theta_example(self):
        # j = 1 at theta: ch W_loc(theta) - q * det
        lam = Weight(2, (1, 1))
        got = truncated_char(lam, 1)
        expected = qwhittaker_char(lam) - GradedCharacter(2, {(1, 1, 1): QPoly.q()})
        assert got == expected
        assert got.q1_dimension() == 8

    @pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_dimension_formula(self, coeffs):
        lam = Weight(2, coeffs)
        size = sum(coeffs)
        for j in range(min(coeffs) + 1):
            assert truncated_char(lam, j).q1_dimension() == 8**j * 3 ** (size - 2 * j)

    def test_homogeneous(self):
        ch = truncated_char(Weight(2, (2, 2)), 2)
        assert ch.total_degree() is not None


class TestMModule:
    def test_validation(self):
        with pytest.raises(ValueError):
            m_module_char(Weight(2, (1, 0)), 1, "middle")
        with pytest.raises(RankMismatchError):
            m_module_char(Weight(1, (1,)), 1, "first")
        with pytest.raises(ValueError):
            m_module_char(Weight(3, (0, 1, 1)), 1, "first")
        with pytest.raises(ValueError):
            m_module_char(Weight(3, (1, 1, 0)), 1, "last")
        with pytest.raises(ValueError, match="lam_scale must be nonnegative"):
            m_module_char(Weight(2, (1, 0)), -1, "first")
        with pytest.raises(ValueError, match="nu must be dominant"):
            m_module_char(Weight(2, (-1, 0)), 1, "first")

    def test_scale_zero_collapses(self):
        nu = Weight(2, (1, 2))
        assert m_module_char(nu, 0, "first") == qwhittaker_char(nu)

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("variant", ["first", "last"])
    def test_raw_filtration_identity(self, rank, variant):
        edge = 1 if variant == "first" else rank
        for m, k in itertools.product(range(4), repeat=2):
            lhs = char_multiply(
                qwhittaker_char(m * Weight.fundamental(rank, edge)),
                qwhittaker_char(k * Weight.fundamental(rank, edge)),
            )
            big, small = max(m, k), min(m, k)
            rhs = GradedCharacter.zero(rank)
            for i in range(small + 1):
                c = [0] * rank
                if variant == "first":
                    c[0], c[1] = big - small, i
                else:
                    c[rank - 1], c[rank - 2] = big - small, i
                term = m_module_char(Weight(rank, c), small - i, variant)
                shift = i if variant == "last" else 0
                rhs = rhs + (term * q_binomial(small, i)).det_twist(shift)
            assert lhs == rhs


class TestDecompose:
    def test_spec_example(self):
        f = char_multiply(
            qwhittaker_char(Weight(2, (1, 0))), qwhittaker_char(Weight(2, (0, 1)))
        )
        got = decompose_weyl_basis(f)
        assert got == [
            (Weight(2, (1, 1)), QPoly.one()),
            (Weight(2, (0, 0)), QPoly({0: 1, 1: -1})),
        ]

    def test_rejects_nonsymmetric(self):
        # no peel meets a nonsymmetric input: the constructor refuses it
        for n, key in ((1, (1, 0)), (11, RANK11_KEY)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^input is not a symmetric function$"):
                GradedCharacter(n, {key: 1})
            assert time.perf_counter() - start < 1.0

    def test_rejects_non_character(self):
        with pytest.raises(TypeError):
            decompose_weyl_basis("nope")

    def test_single_term(self):
        lam = Weight(2, (2, 1))
        got = decompose_weyl_basis(qwhittaker_char(lam))
        assert got == [(lam, QPoly.one())]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(1, 3))
        count = data.draw(st.integers(1, 3))
        terms = {}
        for _ in range(count):
            coeffs = data.draw(
                st.tuples(*(st.integers(0, 2) for _ in range(n))).filter(
                    lambda c: sum(c) <= 3
                )
            )
            poly = QPoly(
                {
                    k: data.draw(st.integers(-3, 3))
                    for k in range(data.draw(st.integers(1, 3)))
                }
            )
            if not poly.is_zero():
                terms[Weight(n, coeffs)] = terms.get(Weight(n, coeffs), QPoly.zero()) + poly
        terms = {w: p for w, p in terms.items() if not p.is_zero()}
        f = GradedCharacter.zero(n)
        for w, p in terms.items():
            f = f + qwhittaker_char(w) * p
        got = dict(decompose_weyl_basis(f))
        assert got == terms

    def test_rank4_round_trip(self):
        combo = {
            Weight(4, (1, 0, 1, 0)): QPoly.one(),
            Weight(4, (0, 1, 0, 1)): QPoly({0: 2, 3: -1}),
            Weight(4, (0, 0, 1, 0)): QPoly({1: -3}),
        }
        f = GradedCharacter.zero(4)
        for w, p in combo.items():
            f = f + qwhittaker_char(w) * p
        assert dict(decompose_weyl_basis(f)) == combo
        product = char_multiply(
            qwhittaker_char(Weight(4, (1, 0, 0, 1))),
            qwhittaker_char(Weight(4, (0, 1, 0, 0))),
        )
        rebuilt = GradedCharacter.zero(4)
        for w, p in decompose_weyl_basis(product):
            shift, rem = divmod(product.total_degree() - w.size(), 5)
            assert rem == 0
            rebuilt = rebuilt + (qwhittaker_char(w) * p).det_twist(shift)
        assert rebuilt == product

    def test_seeded_random_round_trip(self):
        rng = random.Random(20260814)
        for _ in range(50):
            n = rng.randint(1, 3)
            combo = {}
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(coeffs) > 3:
                    continue
                poly = QPoly({k: rng.randint(-4, 4) for k in range(rng.randint(1, 4))})
                if poly.is_zero():
                    continue
                w = Weight(n, coeffs)
                combo[w] = combo.get(w, QPoly.zero()) + poly
            combo = {w: p for w, p in combo.items() if not p.is_zero()}
            f = GradedCharacter.zero(n)
            for w, p in combo.items():
                f = f + qwhittaker_char(w) * p
            assert dict(decompose_weyl_basis(f)) == combo

    def test_square_pinned(self):
        ch = qwhittaker_char(Weight(2, (2, 2)))
        got = [
            (w.coeffs, p.coefficient_list())
            for w, p in decompose_weyl_basis(ch * ch)
        ]
        assert got == [
            ((4, 4), [1]),
            ((5, 2), [1, 1, -1, -1]),
            ((6, 0), [1, -1, -1, 1]),
            ((2, 5), [1, 1, -1, -1]),
            ((3, 3), [2, 3, 0, -3, -4, -1, 2, 1]),
            ((4, 1), [2, 2, -3, -4, -1, 2, 3, 0, -1]),
            ((0, 6), [1, -1, -1, 1]),
            ((1, 4), [2, 2, -3, -4, -1, 2, 3, 0, -1]),
            ((2, 2), [3, 2, -1, -8, -6, 6, 6, 2, -3, -2, 1]),
            ((3, 0), [1, 1, -3, -3, 3, 3, -1, -1]),
            ((0, 3), [1, 1, -3, -3, 3, 3, -1, -1]),
            ((1, 1), [2, 1, -6, -4, 6, 6, -2, -4, 0, 1]),
            ((0, 0), [1, -2, -1, 4, -1, -2, 1]),
        ]

    def test_peel_leaves_full_memos_alone(self):
        # leaders come from the row memo's dominant terms: with the full
        # character memo emptied first, building the factors is all that
        # may fill it
        _partition_char_cached.cache_clear()
        product = qwhittaker_char(Weight(2, (3, 1))) * qwhittaker_char(
            Weight(2, (1, 2))
        )
        before = _partition_char_cached.cache_info().currsize
        assert len(decompose_weyl_basis(product)) > 1
        assert _partition_char_cached.cache_info().currsize == before

    @pytest.mark.parametrize("extra", [(4, 0, 0), (3, 0, 0)])
    def test_leader_above_the_previous_one_raises(self, extra, monkeypatch, capsys):
        # a faulty memo entry for the leader (2, 1, 0) adds a key above it.
        # (4, 0, 0) is peeled once and never revisited, which a set of seen
        # leaders misses; (3, 0, 0) leads back to (2, 1, 0). Leaders must
        # strictly decrease, so the next leader raises in both cases
        f = qwhittaker_char(Weight(2, (1, 1)))
        memo = charformulas._row_dominant_terms

        def faulty(row, width):
            terms = memo(row, width)
            # a copy: the memo's own entry stays as it is
            return {**terms, extra: 1} if row == (2, 1, 0) else terms

        monkeypatch.setattr(charformulas, "_row_dominant_terms", faulty)
        with pytest.raises(DecompositionError):
            decompose_weyl_basis(f)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(f.to_json())))
        assert cli.run(["decompose"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_product_round_trip(self, data):
        n = data.draw(st.integers(1, 3))
        weights = st.tuples(*(st.integers(0, 3) for _ in range(n))).filter(
            lambda c: sum(c) <= 3
        )
        a = qwhittaker_char(Weight(n, data.draw(weights)))
        b = qwhittaker_char(Weight(n, data.draw(weights)))
        product = a * b
        degree = product.total_degree()
        rebuilt = GradedCharacter.zero(n)
        dim = 0
        for w, p in decompose_weyl_basis(product):
            shift, rem = divmod(degree - w.size(), n + 1)
            assert rem == 0 and shift >= 0
            rebuilt = rebuilt + (qwhittaker_char(w) * p).det_twist(shift)
            # dim W(mu) = prod_i dim V(omega_i)^{mu_i}
            dim += p.at_one() * math.prod(
                math.comb(n + 1, i) ** c for i, c in enumerate(w.coeffs, 1)
            )
        assert rebuilt == product
        assert dim == a.q1_dimension() * b.q1_dimension()


# Rows of every length 2 to 5 with small entries: 141 of them.
GRID_ROWS = [
    row
    for length, top in ((2, 4), (3, 4), (4, 4), (5, 2))
    for row in itertools.product(range(top + 1), repeat=length)
    if is_dominant(row)
]

# The char-ladder weights of bench/run.py; each runs with its dual too.
CHAR_LADDER = [
    (10, 10), (12, 12), (16, 4),
    (3, 3, 3), (4, 2, 4), (5, 0, 5),
    (2, 1, 1, 2), (1, 2, 1, 0),
    (1, 0, 1, 0, 1),
]

# The library pairs of bench/run.py's tensor-decompose workload.
LIBRARY_PAIRS = [
    ((4, 4), (4, 4)),
    ((3, 3), (3, 3)),
    ((2, 2, 2), (1, 1, 1)),
    ((2, 1, 0), (0, 1, 2)),
]

# Rows with a coefficient of 256 or more in 2-byte slots, so that slots one
# byte narrower than _row_width overflow; dim W(row) is loose by about a
# byte elsewhere, e.g. (24, 12, 0) peaks at 275,713,741 (29 bits) in 5 bytes.
TIGHT_ROWS = [(10, 0, 0), (10, 5, 0), (7, 6, 3, 0), (6, 4, 3, 2, 0)]

# Rows with dim W(row) >= 2^64, so their own slots are wider than 8 bytes:
# W(64) at rank 1 and W(21, 21) at rank 2 (dim 3^42).
WIDE_ROWS = [(64, 0), (42, 21, 0)]


def ladder_rows():
    """The distinct bounding rows of the char-ladder weights and their duals."""
    return sorted(
        {
            weight_to_bounding_partition(Weight(len(c), c)).padded(len(c) + 1)
            for coeffs in CHAR_LADDER
            for c in (coeffs, coeffs[::-1])
        }
    )


@functools.cache
def reference_row_terms(row):
    """{dominant key: QPoly} of P_row by the branching rule over QPoly.

    The reference for the packed memo: psi is a QPoly product of Gaussian
    binomials and every term is multiplied and added as a QPoly.
    """
    if len(row) == 1:
        return {row: QPoly.one()}
    size = sum(row)
    pairs = list(zip(row, row[1:]))
    data = {}
    for upper in itertools.product(*(range(lo, hi + 1) for hi, lo in pairs)):
        psi = QPoly.one()
        for (hi, lo), u in zip(pairs, upper):
            psi = psi * q_binomial(hi - lo, hi - u)
        last = size - sum(upper)
        for key, coeff in reference_row_terms(upper).items():
            if key[-1] >= last:
                key += (last,)
                data[key] = data.get(key, QPoly.zero()) + coeff * psi
    return data


def unpacked_row(row, width):
    """The packed memo's entry for (row, width), each value unpacked."""
    return {k: _unpack(v, width) for k, v in _row_dominant_terms(row, width).items()}


def fresh_build_memo_size(coeffs, memo):
    """What a fresh process prints for the size of charformulas.<memo> after
    one qwhittaker_char of the weight with these coefficients."""
    probe = (
        "from weylchar import Weight, charformulas; "
        "charformulas.qwhittaker_char(Weight(%d, %r)); "
        "print(charformulas.%s.cache_info().currsize)" % (len(coeffs), coeffs, memo)
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def reference_peel(f):
    """(leader key, coefficient) of each step of the peel of f over reference rows."""
    remainder = {k: p for k, p in f.terms.items() if is_dominant(k)}
    out = []
    while remainder:
        key = max(remainder)
        coeff = remainder[key]
        out.append((key, coeff))
        for k, p in reference_row_terms(key).items():
            acc = remainder.get(k, QPoly.zero()) - p * coeff
            if acc:
                remainder[k] = acc
            else:
                del remainder[k]
    return out


class TestRowDominantTerms:
    def test_equals_pop_route(self):
        # pop_char multiplies per-cell series of enumerated overlays over GT
        # patterns and shares neither the interlacing ranges nor psi with the
        # row memo, so a fault in either shows up here
        assert len(GRID_ROWS) == 141
        for row in GRID_ROWS:
            n = len(row) - 1
            ch = pop_char(partition_to_weight(Partition(row), n)).det_twist(row[-1])
            dominant = {k: p for k, p in ch.terms.items() if is_dominant(k)}
            assert unpacked_row(row, _row_width(row)) == dominant, row
            assert reference_row_terms(row) == dominant, row

    def test_equals_reference(self):
        rows = GRID_ROWS + ladder_rows() + TIGHT_ROWS
        assert len(rows) == 141 + 11 + 4
        for row in rows:
            width = _row_width(row)
            assert unpacked_row(row, width) == reference_row_terms(row), row
            # a wider slot holds the same coefficients
            assert unpacked_row(row, width + 1) == reference_row_terms(row), row

    def test_branches_are_the_contributing_ones(self):
        # _branches yields an upper row exactly when P_upper has a dominant
        # key ending at last or above, i.e. when the branch adds a key to
        # P_row; the reference walks every interlacing row
        rows = [row for row in GRID_ROWS + ladder_rows() + TIGHT_ROWS if len(row) > 1]
        assert len(rows) == 156
        for row in rows:
            size = sum(row)
            pairs = list(zip(row, row[1:]))
            contributing = {
                upper
                for upper in itertools.product(
                    *(range(lo, hi + 1) for hi, lo in pairs)
                )
                if any(
                    key[-1] >= size - sum(upper)
                    for key in reference_row_terms(upper)
                )
            }
            assert {upper for upper, _, _ in _branches(row)} == contributing, row
        # 169 interlacing rows, 78 of which add no dominant key
        assert len(list(_branches((24, 12, 0)))) == 91

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_rows_match_reference(self, data):
        # parts up to 8 and a last part that need not be 0, beyond the grids
        n = data.draw(st.integers(1, 3))
        parts = data.draw(st.lists(st.integers(0, 8), min_size=n + 1, max_size=n + 1))
        row = tuple(sorted(parts, reverse=True))
        assert unpacked_row(row, _row_width(row)) == reference_row_terms(row)

    def test_wide_slots(self):
        # slots of 7 and 8 bytes, and wider than any machine integer
        for row in GRID_ROWS + TIGHT_ROWS:
            expected = reference_row_terms(row)
            for width in (7, 8, 9):
                assert unpacked_row(row, width) == expected, (row, width)
        for row in WIDE_ROWS:
            assert _row_width(row) == 9
            assert unpacked_row(row, 9) == reference_row_terms(row), row

    def test_two_part_rows_match_reference(self):
        # two-part rows end the recursion in closed form; at 1-byte slots a
        # value that spilled into the next slot would read back wrongly
        rows = [(a, b) for a in range(13) for b in range(a + 1)]
        assert len(rows) == 91
        for row in rows:
            expected = reference_row_terms(row)
            for width in sorted({_row_width(row), 1, 9}):
                assert unpacked_row(row, width) == expected, (row, width)

    def test_two_part_values_are_the_cached_binomials(self):
        # each value of a two-part row is the q-binomial of the binomial
        # cache itself, not a copy, also inside a three-part build
        build = _row_width((24, 12, 0))
        assert build == 5
        _row_dominant_terms((24, 12, 0), build)
        cases = [((24, 12), build), ((20, 4), build), ((40, 0), 9), ((7, 7), 3)]
        for row, width in cases:
            a, b = row
            terms = _row_dominant_terms(row, width)
            assert len(terms) == (a - b) // 2 + 1
            for j in range((a - b) // 2 + 1):
                assert terms[(a - j, b + j)] is qalg._packed_binomial(a - b, j, width)

    def test_width_bounds_every_coefficient(self):
        for row in GRID_ROWS + ladder_rows() + TIGHT_ROWS:
            coeffs = [c for p in reference_row_terms(row).values() for c in p.coeffs]
            assert min(coeffs) > 0, row
            assert max(coeffs) < 256 ** _row_width(row), row
        for row in TIGHT_ROWS:
            width = _row_width(row)
            assert width == 2
            assert max(max(p.coeffs) for p in reference_row_terms(row).values()) >= 256
            # one-byte slots carry into the next slot
            assert unpacked_row(row, width - 1) != reference_row_terms(row), row

    @pytest.mark.parametrize("pair", LIBRARY_PAIRS, ids=str)
    def test_library_pair_leaders(self, pair):
        # the leaders of a bench product, at their own width and at the
        # first leader's, the widest: the peel reads the row memo at the
        # widest leader width so far and moves each value to the width of
        # its running bound, which is at least that, since the bound grows
        # by dim W(mu) or more at each leader mu
        a, b = (qwhittaker_char(Weight(len(c), c)) for c in pair)
        n = a.n
        steps = reference_peel(a * b)
        assert decompose_weyl_basis(a * b) == [
            (partition_to_weight(Partition(key), n), coeff) for key, coeff in steps
        ]
        peel_width = _row_width(steps[0][0])
        for key, _ in steps:
            width = _row_width(key)
            assert width <= peel_width
            assert unpacked_row(key, width) == reference_row_terms(key), key
            assert unpacked_row(key, peel_width) == reference_row_terms(key), key

    def test_peel_widens_for_a_later_leader(self):
        # det^13 packs in 1-byte slots, and P_(12,0,0) has coefficients up
        # to 1,968 and needs 3-byte slots: the peel reads the row memo at the
        # widest leader width so far, so the second leader widens it, and a
        # memo read at 1 byte would carry between slots. The remainder is
        # sized by the running bound instead, which starts one byte above
        # N(f) = 1 + dim W(12, 0) and so needs no widening here
        assert _row_width((13, 13, 13)) == 1 and _row_width((12, 0, 0)) == 3
        f = qwhittaker_partition_char((13, 13, 13), 2) + qwhittaker_partition_char(
            (12, 0, 0), 2
        )
        assert decompose_weyl_basis(f) == [
            (Weight(2, (0, 0)), QPoly.one()),
            (Weight(2, (12, 0)), QPoly.one()),
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_peel_matches_reference_with_wide_coefficients(self, data):
        # f = sum of c_i P_row_i with signed c_i whose coefficients reach
        # +-2^80, so the remainder packs slots wider than any machine
        # integer; the peel must take the reference's leaders step by step
        n = data.draw(st.integers(1, 3))
        rows = [row for row in GRID_ROWS if len(row) == n + 1]
        coeff = st.integers(-3, 3) | st.integers(-(2**80), 2**80)
        f = GradedCharacter.zero(n)
        for _ in range(data.draw(st.integers(1, 3))):
            row = data.draw(st.sampled_from(rows))
            poly = QPoly(enumerate(data.draw(st.lists(coeff, min_size=1, max_size=4))))
            f = f + qwhittaker_partition_char(row, n) * poly
        assert decompose_weyl_basis(f) == [
            (partition_to_weight(Partition(key), n), c) for key, c in reference_peel(f)
        ]

    @pytest.mark.parametrize(
        "key,widenings",
        [
            ((12, 0, 0), 1),
            ((8, 4, 0), 0),
            ((24, 0, 0), 2),
            ((30, 0, 0), 1),
            ((40, 0), 1),
        ],
        ids=str,
    )
    def test_monomial_orbit_widens_the_remainder(self, monkeypatch, key, widenings):
        # m_key has N(f) = its orbit size, so its remainder starts in 2-byte
        # slots, but its expansion in the P basis grows: for all but
        # m_(8,4,0) the running bound passes 2^15 and the peel re-slots the
        # remainder. m_(30,0,0) and m_(40) have coefficients of 18 and 20
        # bits, which 2-byte slots would read wrongly
        widths = []

        def spy(coeffs, width):
            if not widths or widths[-1] != width:
                widths.append(width)
            return qalg._signed_value(coeffs, width)

        n = len(key) - 1
        f = orbit_sum(n, key)
        expected = [
            (partition_to_weight(Partition(k), n), c) for k, c in reference_peel(f)
        ]
        monkeypatch.setattr(charformulas, "_signed_value", spy)
        assert decompose_weyl_basis(f) == expected
        assert widths[0] == 2 and len(widths) == widenings + 1, widths

    def test_character_builds_no_q_binomial(self):
        # the row memo's weights come from qalg._packed_binomial, the Pascal
        # rule on packed ints, so a fresh build leaves q_binomial's memo empty
        assert fresh_build_memo_size((12, 12), "q_binomial") == "0\n"

    @pytest.mark.parametrize(
        "coeffs,rows", [((12, 12), 92), ((4, 2, 4), 71), ((2, 1, 1, 2), 61)], ids=str
    )
    def test_character_build_memoises_contributing_rows_only(self, coeffs, rows):
        # a fresh build memoises only the sub-rows a contributing branch
        # reaches, down to the two-part rows, which are closed forms and
        # branch no further; visiting every interlacing row down to two
        # parts would memoise 170, 122 and 99
        assert fresh_build_memo_size(coeffs, "_row_dominant_terms") == "%d\n" % rows

    def test_oversized_row_overflows_before_the_width(self, monkeypatch):
        # pop_count would raise 3 to this power and never finish
        def forbidden(*args):
            raise AssertionError("the width was computed for an oversized row")

        # determinant columns alone do not make a row wide
        assert qwhittaker_partition_char((10**23,) * 3, 2) == GradedCharacter(
            2, {(10**23,) * 3: 1}
        )
        monkeypatch.setattr(charformulas, "pop_count", forbidden)
        with pytest.raises(OverflowError):
            qwhittaker_partition_char((10**23, 0, 0), 2)
        big = GradedCharacter(1, {(10**23, 0): 1, (0, 10**23): 1})
        with pytest.raises(OverflowError):
            decompose_weyl_basis(big)
