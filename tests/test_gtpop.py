from __future__ import annotations

import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from weylchar import (
    BasisWord,
    GTPattern,
    GradedCharacter,
    POP,
    Partition,
    QPoly,
    Weight,
    basis_word,
    bounded_partitions,
    cell_bounds,
    cells,
    enumerate_gt,
    enumerate_pops,
    lowest_weight_pop,
    pattern_weight,
    pop_char,
    pop_compare,
    pop_count,
    pop_grade,
    q_binomial,
    weight_to_bounding_partition,
)


def small_dominant(max_rank=3, max_sum=4):
    return st.integers(1, max_rank).flatmap(
        lambda n: st.lists(st.integers(0, max_sum), min_size=n, max_size=n)
        .filter(lambda c: sum(c) <= max_sum)
        .map(lambda c: Weight(n, c))
    )


class TestGTPattern:
    def test_row_lengths_enforced(self):
        with pytest.raises(ValueError):
            GTPattern(((1, 2), (2, 1, 0)))

    def test_interlacing_enforced(self):
        with pytest.raises(ValueError):
            GTPattern(((3,), (2, 0)))
        with pytest.raises(ValueError):
            GTPattern(((0,), (2, 1), (2, 1, 0)))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            GTPattern([(1.5,), (2, 1)])

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([(1,), (1, 2)], "bottom row must be weakly decreasing"),
            ([(0,), (0, -1)], "entries must be nonnegative"),
            ([], "pattern needs at least one row"),
        ],
    )
    def test_rows_validated(self, rows, message):
        with pytest.raises(ValueError, match=message):
            GTPattern(rows)

    def test_accessors(self):
        p = GTPattern(((1,), (2, 0), (2, 1, 0)))
        assert p.n == 2
        assert p.entry(2, 1) == 2
        assert p.bounding() == Partition((2, 1))

    def test_weight_example(self):
        # bounding (1,0), top (1): weight (1,0)
        p = GTPattern(((1,), (1, 0)))
        assert pattern_weight(p) == (1, 0)


class TestEnumerateGT:
    def test_frozen_counts(self):
        assert len(enumerate_gt(Weight(1, (2,)), 1)) == 3
        assert len(enumerate_gt(Weight(2, (1, 0)), 2)) == 3
        assert len(enumerate_gt(Weight(2, (0, 1)), 2)) == 3
        assert len(enumerate_gt(Weight(2, (1, 1)), 2)) == 8

    def test_lex_sorted(self):
        pats = enumerate_gt(Weight(2, (1, 1)), 2)
        keys = [tuple(itertools.chain.from_iterable(p.rows)) for p in pats]
        assert keys == sorted(keys)

    def test_weight_rank_must_match(self):
        with pytest.raises(ValueError, match="weight rank does not match"):
            enumerate_gt(Weight(3, (1, 0, 0)), 2)

    def test_accepts_partition_and_tuple(self):
        by_weight = enumerate_gt(Weight(2, (1, 1)), 2)
        by_partition = enumerate_gt(Partition((2, 1)), 2)
        by_tuple = enumerate_gt((2, 1, 0), 2)
        assert by_weight == by_partition == by_tuple

    def test_fundamental_weight_sum(self):
        # omega_1 patterns carry the n+1 coordinate weights
        for n in (1, 2, 3):
            pats = enumerate_gt(Weight.fundamental(n, 1), n)
            weights = sorted(pattern_weight(p) for p in pats)
            expected = sorted(
                tuple(1 if k == i else 0 for k in range(n + 1)) for i in range(n + 1)
            )
            assert weights == expected

    @given(small_dominant())
    @settings(max_examples=30, deadline=None)
    def test_count_is_classical_dimension(self, lam):
        # patterns biject with a basis of the irreducible module
        assert len(enumerate_gt(lam, lam.n)) == weyl_dimension(lam)

    @given(small_dominant())
    @settings(max_examples=30, deadline=None)
    def test_weights_sum_to_size(self, lam):
        size = weight_to_bounding_partition(lam).size()
        for p in enumerate_gt(lam, lam.n):
            assert sum(pattern_weight(p)) == size


def weyl_dimension(lam):
    """Independent oracle: prod over roots of (<lam+rho, a> / <rho, a>)."""
    n = lam.n
    num, den = 1, 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            num *= sum(lam.coeffs[i - 1 : j]) + (j - i + 1)
            den *= j - i + 1
    assert num % den == 0
    return num // den


class TestBoundedPartitions:
    @given(st.integers(0, 5), st.integers(0, 5))
    def test_count(self, a, b):
        items = list(bounded_partitions(a, b))
        assert len(items) == math.comb(a + b, a)
        assert len(set(items)) == len(items)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_shape(self, a, b):
        for parts in bounded_partitions(a, b):
            assert len(parts) == a
            assert all(parts[k] >= parts[k + 1] for k in range(len(parts) - 1))
            assert all(0 <= p <= b for p in parts)

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_generating_function(self, a, b):
        # sum of q^{boxes} over the cell's overlays is the Gaussian binomial
        total = QPoly.zero()
        for parts in bounded_partitions(a, b):
            total = total + QPoly({sum(parts): 1})
        assert total == q_binomial(a + b, a)


class TestPOP:
    def test_overlay_shape_enforced(self):
        pattern = GTPattern(((0,), (2, 0)))
        # cell (1,1): 2 parts, each <= 0
        with pytest.raises(ValueError):
            POP(pattern, {(1, 1): (0,)})
        with pytest.raises(ValueError):
            POP(pattern, {(1, 1): (1, 0)})
        pop = POP(pattern, {(1, 1): (0, 0)})
        assert pop.box_count(1, 1) == 0
        # cell (1,1) of this pattern takes 2 parts, each at most 1
        with pytest.raises(ValueError, match="overlay parts must be weakly decreasing"):
            POP(GTPattern([(1,), (3, 0)]), {(1, 1): (0, 1)})

    def test_missing_cell_rejected(self):
        pattern = GTPattern(((1,), (1, 0), (1, 0, 0)))
        with pytest.raises(ValueError):
            POP(pattern, {(1, 1): ()})

    @pytest.mark.parametrize("overlays", [{(1, 1): (0.9,)}, {(1.0, 1): (0,)}])
    def test_float_rejected(self, overlays):
        # cell (1,1) of this pattern takes one part, so a truncated 0.9 fits
        with pytest.raises(TypeError):
            POP(GTPattern([(1,), (2, 0)]), overlays)

    def test_r_data(self):
        # cell (1,1) has a = 3 parts bounded by b = 2
        pattern = GTPattern(((2,), (5, 0)))
        pop = POP(pattern, {(1, 1): (2, 2, 0)})
        assert pop.r_data(1, 1) == {2: 2, 0: 1}
        assert pop_grade(pop) == 4

    def test_count_formula(self):
        assert pop_count(Weight(1, (2,))) == 4
        assert pop_count(Weight(2, (1, 1))) == 9
        assert pop_count(Weight(3, (2, 0, 1))) == 64
        with pytest.raises(ValueError, match="POPs are indexed by dominant weights"):
            pop_count(Weight(2, (-1, 0)))

    @given(small_dominant(max_sum=3))
    @settings(max_examples=20, deadline=None)
    def test_enumeration_matches_formula(self, lam):
        pops = list(enumerate_pops(lam, lam.n))
        assert len(pops) == pop_count(lam)
        assert len(set(pops)) == len(pops)

    def test_pop_char_equals_per_pop_sum(self):
        # pop_char multiplies per-cell series and builds no POP, so this keeps
        # enumerate_pops, POP and pop_grade checked against it
        weights = [
            Weight(n, coeffs)
            for n in (1, 2, 3)
            for coeffs in itertools.product(range(4), repeat=n)
            if sum(coeffs) <= 3
        ]
        assert len(weights) == 34
        for lam in weights:
            assert pop_char(lam) == per_pop_char(lam), lam


def per_pop_char(lam):
    """Reference POP character: q^{grade} x^{weight} summed POP by POP."""
    data = {}
    for pop in enumerate_pops(lam, lam.n):
        key = pattern_weight(pop.pattern)
        data[key] = data.get(key, QPoly.zero()) + QPoly({pop_grade(pop): 1})
    return GradedCharacter(lam.n, data)


class TestPopCompare:
    def test_bounding_mismatch(self):
        a = next(iter(enumerate_pops(Weight(1, (1,)), 1)))
        b = next(iter(enumerate_pops(Weight(1, (2,)), 1)))
        with pytest.raises(ValueError):
            pop_compare(a, b)

    def test_smaller_box_count_is_greater(self):
        pattern = GTPattern(((1,), (2, 0)))
        low = POP(pattern, {(1, 1): (0,)})
        high = POP(pattern, {(1, 1): (1,)})
        assert pop_compare(low, high) == 1
        assert pop_compare(high, low) == -1

    def test_equal_boxes_compare_largest_part(self):
        pattern = GTPattern(((2,), (4, 0)))
        a = POP(pattern, {(1, 1): (2, 0)})
        b = POP(pattern, {(1, 1): (1, 1)})
        # equal box counts; a has a part of size 2, so r_a(2) > r_b(2)
        assert pop_compare(a, b) == 1
        assert pop_compare(b, a) == -1

    @pytest.mark.parametrize(
        "lam",
        [Weight(1, (3,)), Weight(2, (1, 1)), Weight(2, (2, 0)), Weight(2, (0, 2)),
         Weight(3, (1, 0, 1))],
    )
    def test_total_order(self, lam):
        pops = list(enumerate_pops(lam, lam.n))
        assert len(pops) <= 200
        ordered = sorted(pops, key=functools.cmp_to_key(pop_compare))
        for i in range(len(ordered)):
            assert pop_compare(ordered[i], ordered[i]) == 0
            for j in range(i + 1, len(ordered)):
                assert pop_compare(ordered[i], ordered[j]) < 0
                assert pop_compare(ordered[j], ordered[i]) > 0

    def test_lowest_weight_pop_comparable_to_all(self):
        lam = Weight(2, (1, 1))
        low = lowest_weight_pop(lam)
        for pop in enumerate_pops(lam, 2):
            assert pop_compare(low, pop) in (-1, 0, 1)


class TestLowestWeightPOP:
    @given(small_dominant(max_sum=3))
    @settings(max_examples=20, deadline=None)
    def test_weight_is_w0_of_highest(self, lam):
        low = lowest_weight_pop(lam)
        bounding = weight_to_bounding_partition(lam).padded(lam.n + 1)
        assert pattern_weight(low.pattern) == tuple(reversed(bounding))
        assert pop_grade(low) == 0

    @given(small_dominant(max_sum=3))
    @settings(max_examples=20, deadline=None)
    def test_word_exponents(self, lam):
        word = basis_word(lowest_weight_pop(lam))
        n = lam.n
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                assert word.total_exponent(i, j) == lam.coeffs[n - j + i - 1]


class TestBasisWord:
    def test_trivial_example(self):
        # omega_1 at rank 1: the nonzero-weight pattern has one zero part
        lam = Weight(1, (1,))
        pops = list(enumerate_pops(lam, 1))
        words = [basis_word(p) for p in pops]
        rendered = sorted(str(w) for w in words)
        assert rendered == ["(y[1,1] t^0)^1", "1"]

    @pytest.mark.parametrize(
        "factors",
        [
            [((1.5, 1), {0.5: 1.9})],
            [((1, 1.0), {0: 1})],
            [((1, 1), {0.5: 1})],
            [((1, 1), {0: 1.9})],
        ],
    )
    def test_float_rejected(self, factors):
        with pytest.raises(TypeError):
            BasisWord(factors)

    def test_factors_validated(self):
        with pytest.raises(ValueError, match="root indices must satisfy 1 <= i <= j"):
            BasisWord([((2, 1), {0: 1})])
        with pytest.raises(ValueError, match="multiplicities >= 1"):
            BasisWord([((1, 1), {0: 0})])

    def test_word_structure(self):
        pattern = GTPattern(((2,), (5, 0)))
        pop = POP(pattern, {(1, 1): (2, 2, 0)})
        word = basis_word(pop)
        assert word.factors == (((1, 1), {0: 1, 2: 2}),)
        assert word.t_degree() == 4
        assert word.total_exponent(1, 1) == 3
        assert word.total_exponent(1, 2) == 0

    @given(small_dominant(max_sum=3))
    @settings(max_examples=15, deadline=None)
    def test_degree_equals_grade(self, lam):
        for pop in enumerate_pops(lam, lam.n):
            assert basis_word(pop).t_degree() == pop_grade(pop)

    @given(small_dominant(max_sum=3))
    @settings(max_examples=15, deadline=None)
    def test_cells_drive_roots(self, lam):
        # the power of y_{ij} is the part count of the overlay at cell (j, i)
        n = lam.n
        for pop in enumerate_pops(lam, lam.n):
            word = basis_word(pop)
            for j, i in cells(n):
                assert word.total_exponent(i, j) == len(pop.overlay(j, i))


class TestCellBounds:
    def test_out_of_range(self):
        pattern = GTPattern(((1,), (1, 0)))
        with pytest.raises(ValueError):
            cell_bounds(pattern, 2, 1)

    @given(small_dominant(max_sum=3))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, lam):
        for pattern in enumerate_gt(lam, lam.n):
            for j, i in cells(lam.n):
                a, b = cell_bounds(pattern, j, i)
                assert a >= 0 and b >= 0


@pytest.mark.parametrize(
    "obj,attr",
    [
        (GTPattern([(0,), (1, 0)]), "rows"),
        (lowest_weight_pop(Weight(1, (1,))), "pattern"),
        (BasisWord([]), "factors"),
    ],
)
def test_immutable(obj, attr):
    with pytest.raises(AttributeError, match="%s is immutable" % type(obj).__name__):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError, match="%s is immutable" % type(obj).__name__):
        delattr(obj, attr)


def test_overlays_and_powers_are_read_only():
    # the hash of a POP or a word reads these maps, so a write would lose
    # the value in every set or dict that holds it
    pop = lowest_weight_pop(Weight(2, (1, 1)))
    pops = {pop}
    with pytest.raises(TypeError):
        pop.overlays[(1, 1)] = (5,)
    assert pop in pops
    word = basis_word(POP(GTPattern(((2,), (5, 0))), {(1, 1): (2, 2, 0)}))
    words = {word}
    with pytest.raises(TypeError):
        word.factors[0][1][0] = 7
    assert word in words
    # the reprs still show plain dicts, as the constructors take them
    assert repr(word) == "BasisWord((((1, 1), {0: 1, 2: 2}),))"
    assert repr(pop).endswith("{(1, 1): (0,), (2, 1): (0,), (2, 2): (0,)})")
