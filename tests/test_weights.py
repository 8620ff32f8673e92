from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from weylchar import (
    Partition,
    RankMismatchError,
    Root,
    Weight,
    pairing,
    partition_to_weight,
    positive_roots,
    root_weight,
    weight_to_bounding_partition,
)

small_rank = st.integers(min_value=1, max_value=4)


def coeff_lists(rank, low=-4, high=4):
    return st.lists(st.integers(low, high), min_size=rank, max_size=rank)


class TestWeight:
    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            Weight(2, (1, 0, 0))

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            Weight(0, ())

    def test_float_rejected(self):
        # as in QPoly and GradedCharacter, a float is refused, not truncated
        with pytest.raises(TypeError):
            Weight(2, (1.5, 0))

    @pytest.mark.parametrize("rank", [2.5, 2.0])
    def test_float_rank_rejected(self, rank):
        # refused even when integral: 2.0 would build a weight equal to the
        # int one
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Weight(rank, (1, 1))

    def test_float_fundamental_index_rejected(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Weight.fundamental(3, 2.5)

    def test_arithmetic(self):
        a = Weight(2, (1, 0))
        b = Weight(2, (0, 1))
        assert a + b == Weight(2, (1, 1))
        assert a - b == Weight(2, (1, -1))
        assert 3 * a == Weight(2, (3, 0))

    def test_add_rank_check(self):
        with pytest.raises(RankMismatchError):
            Weight(2, (1, 0)) + Weight(3, (1, 0, 0))
        with pytest.raises(RankMismatchError, match="subtract weights of different"):
            Weight(2, (1, 0)) - Weight(3, (1, 0, 0))

    def test_dominant(self):
        assert Weight(2, (0, 0)).is_dominant()
        assert not Weight(2, (1, -1)).is_dominant()

    def test_size(self):
        # size is the box count of the bounding partition
        lam = Weight(3, (2, 0, 1))
        assert lam.size() == 2 * 1 + 0 * 2 + 1 * 3
        assert lam.size() == weight_to_bounding_partition(lam).size()


class TestRoot:
    def test_positive_roots_count(self):
        for n in range(1, 5):
            assert len(positive_roots(n)) == n * (n + 1) // 2

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            Root(2, 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Root(1.9, 2)

    def test_highest(self):
        assert Root.highest(3) == Root(1, 3)

    def test_theta_coeffs(self):
        assert root_weight(Root.highest(1), 1) == Weight(1, (2,))
        assert root_weight(Root.highest(3), 3) == Weight(3, (1, 0, 1))
        assert root_weight(Root(2, 3), 4) == Weight(4, (-1, 1, 1, -1))
        with pytest.raises(RankMismatchError):
            root_weight(Root(1, 3), 2)


class TestPairing:
    def test_interval_sum(self):
        lam = Weight(3, (2, 0, 1))
        assert pairing(lam, Root(1, 1)) == 2
        assert pairing(lam, Root(1, 2)) == 2
        assert pairing(lam, Root(2, 3)) == 1
        assert pairing(lam, Root.highest(3)) == 3

    def test_out_of_rank(self):
        with pytest.raises(RankMismatchError):
            pairing(Weight(2, (1, 0)), Root(1, 3))

    @given(st.data())
    def test_additive(self, data):
        n = data.draw(small_rank)
        a = Weight(n, data.draw(coeff_lists(n)))
        b = Weight(n, data.draw(coeff_lists(n)))
        for alpha in positive_roots(n):
            assert pairing(a + b, alpha) == pairing(a, alpha) + pairing(b, alpha)

    def test_root_weight_pairs_with_simples(self):
        # alpha_{ij}(h_k) = sum over l = i..j of the Cartan entries a_{kl},
        # which pins alpha_{ij} = alpha_i + ... + alpha_j
        def cartan(k, l):
            return 2 if k == l else (-1 if abs(k - l) == 1 else 0)

        for n in range(1, 6):
            for alpha in positive_roots(n):
                lam = root_weight(alpha, n)
                for k in range(1, n + 1):
                    expected = sum(cartan(k, l) for l in range(alpha.i, alpha.j + 1))
                    assert pairing(lam, Root.simple(k)) == expected


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Partition((2.7, 1))

    def test_trailing_zeros_trimmed(self):
        assert Partition((2, 1, 0, 0)) == Partition((2, 1))
        assert Partition((0, 0)).parts == ()

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
        assert Partition(()).conjugate() == Partition(())

    def test_part_and_padding(self):
        p = Partition((3, 1))
        assert p.padded(4) == (3, 1, 0, 0)
        with pytest.raises(RankMismatchError, match="2 rows does not fit in 1 variables"):
            p.padded(1)


class TestBounding:
    def test_examples(self):
        assert weight_to_bounding_partition(Weight(2, (1, 1))).parts == (2, 1)
        assert weight_to_bounding_partition(Weight(3, (2, 0, 1))).parts == (3, 1, 1)
        assert weight_to_bounding_partition(Weight(2, (0, 0))).parts == ()

    def test_requires_dominant(self):
        with pytest.raises(ValueError):
            weight_to_bounding_partition(Weight(2, (1, -1)))

    def test_partition_too_long(self):
        with pytest.raises(RankMismatchError, match="3 rows does not fit in 2 variables"):
            partition_to_weight(Partition((1, 1, 1)), 1)
        with pytest.raises(RankMismatchError):
            partition_to_weight((1, 1, 1), 1)

    def test_det_column_drops_out(self):
        # a full column is a determinant twist, invisible to the sl-weight
        assert partition_to_weight(Partition((2, 1, 1)), 2) == Weight(2, (1, 0))

    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(small_rank)
        lam = Weight(n, data.draw(coeff_lists(n, 0, 5)))
        p = weight_to_bounding_partition(lam)
        assert partition_to_weight(p, n) == lam


def dominance_leq(p, r):
    """Dominance order on partitions of equal size: all partial sums compare.

    Only the tests below use it: they check that it is a partial order and
    that it implies the lexicographic order the character peel relies on.
    """
    if isinstance(p, (tuple, list)):
        p = Partition(p)
    if isinstance(r, (tuple, list)):
        r = Partition(r)
    if p.size() != r.size():
        raise ValueError("dominance order compares partitions of equal size")
    length = max(p.length(), r.length())
    sp = sr = 0
    for a, b in zip(p.padded(length), r.padded(length)):
        sp += a
        sr += b
        if sp > sr:
            return False
    return True


def partitions_of(total, max_len):
    def build(rest, cap, length):
        if rest == 0:
            yield ()
            return
        if length == 0:
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in build(rest - first, first, length - 1):
                yield (first,) + tail

    return [Partition(p) for p in build(total, total, max_len)]


class TestDominance:
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_leq(Partition((2,)), Partition((2, 1)))

    def test_examples(self):
        assert dominance_leq((1, 1, 1), (2, 1))
        assert dominance_leq((2, 1), (3,))
        assert not dominance_leq((3,), (2, 1))

    @pytest.mark.parametrize("total", range(1, 9))
    def test_partial_order(self, total):
        ps = partitions_of(total, total)
        for p in ps:
            assert dominance_leq(p, p)
        for p, r in itertools.product(ps, ps):
            if dominance_leq(p, r) and dominance_leq(r, p):
                assert p == r
        for p, r, s in itertools.product(ps, ps, ps):
            if dominance_leq(p, r) and dominance_leq(r, s):
                assert dominance_leq(p, s)

    @pytest.mark.parametrize("total", range(1, 9))
    def test_dominance_implies_lex(self, total):
        # the greedy peel in the character decomposition relies on this
        for p, r in itertools.product(partitions_of(total, total), repeat=2):
            if dominance_leq(p, r) and p != r:
                length = max(p.length(), r.length())
                assert p.padded(length) < r.padded(length)


@pytest.mark.parametrize(
    "obj,attr",
    [(Weight(2, (1, 0)), "n"), (Root(1, 2), "i"), (Partition((2, 1)), "parts")],
)
def test_immutable(obj, attr):
    with pytest.raises(AttributeError, match="%s is immutable" % type(obj).__name__):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError, match="%s is immutable" % type(obj).__name__):
        delattr(obj, attr)
