"""Weight and root bookkeeping for sl(n+1).

Weights live in the fundamental-weight basis omega_1, ..., omega_n of a
fixed rank n. Positive roots are the intervals alpha_{ij} = alpha_i + ... +
alpha_j for 1 <= i <= j <= n, with highest root theta = alpha_{1n}.

This module also holds _Value, the one frozen base of every value type in
the package: it imports nothing from the package, so every other module can
build on it.
"""

from __future__ import annotations

import operator


class RankMismatchError(ValueError):
    """Raised when objects of incompatible ranks are combined."""


class _Value:
    """Frozen value: setting or deleting a field raises AttributeError.

    Fields are the names in __slots__, stored once by the constructor with
    object.__setattr__. Equality needs the same class and equal fields, the
    hash is that of the fields (of the one field, if only one), and the
    repr lists them by name; a subclass states what it does differently.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one getter per class, so equality and hash read no field by name
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ["%s=%r" % (name, getattr(self, name)) for name in self.__slots__]
        return "%s(%s)" % (type(self).__name__, ", ".join(fields))


class Weight(_Value):
    """Integral sl(n+1) weight sum(coeffs[i-1] * omega_i)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        n = operator.index(n)
        if n < 1:
            raise ValueError("rank must be a positive integer")
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) != n:
            raise RankMismatchError(
                "rank %d weight needs %d coefficients, got %d" % (n, n, len(coeffs))
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, n):
        return cls(n, (0,) * n)

    @classmethod
    def fundamental(cls, n, i):
        """omega_i in rank n."""
        i = operator.index(i)
        if not 1 <= i <= n:
            raise ValueError("fundamental weight index out of range")
        return cls(n, tuple(1 if k == i else 0 for k in range(1, n + 1)))

    def is_dominant(self):
        return all(c >= 0 for c in self.coeffs)

    def size(self):
        """Total number of boxes of the bounding partition: sum(i * m_i)."""
        return sum(i * c for i, c in enumerate(self.coeffs, start=1))

    def __add__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatchError("cannot add weights of different ranks")
        return Weight(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatchError("cannot subtract weights of different ranks")
        return Weight(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return Weight(self.n, tuple(scalar * c for c in self.coeffs))

    def __repr__(self):
        return "Weight(%d, %r)" % (self.n, self.coeffs)


class Root(_Value):
    """Positive root alpha_{ij} = alpha_i + ... + alpha_j, 1 <= i <= j."""

    __slots__ = ("i", "j")

    def __init__(self, i, j):
        i, j = operator.index(i), operator.index(j)
        if not 1 <= i <= j:
            raise ValueError("need 1 <= i <= j for a positive root")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    @classmethod
    def simple(cls, i):
        return cls(i, i)

    @classmethod
    def highest(cls, n):
        """theta = alpha_1 + ... + alpha_n."""
        return cls(1, n)

    def __repr__(self):
        return "Root(%d, %d)" % (self.i, self.j)


def positive_roots(n):
    """All alpha_{ij} for 1 <= i <= j <= n, lexicographic in (i, j)."""
    return [Root(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def pairing(lam, alpha):
    """lam(h_alpha) = m_i + m_{i+1} + ... + m_j for alpha = alpha_{ij}."""
    if alpha.j > lam.n:
        raise RankMismatchError("root alpha_{%d,%d} does not exist in rank %d"
                                % (alpha.i, alpha.j, lam.n))
    return sum(lam.coeffs[alpha.i - 1 : alpha.j])


def root_weight(alpha, n):
    """alpha_{ij} as a Weight: omega_i + omega_j - omega_{i-1} - omega_{j+1}.

    Indices outside 1..n drop out, so theta = omega_1 + omega_n and the
    simple roots are the rows of the Cartan matrix; at rank 1 the one root
    is 2*omega_1.
    """
    if alpha.j > n:
        raise RankMismatchError("root alpha_{%d,%d} does not exist in rank %d"
                                % (alpha.i, alpha.j, n))
    coeffs = [0] * n
    for idx, sign in ((alpha.i, 1), (alpha.j, 1), (alpha.i - 1, -1), (alpha.j + 1, -1)):
        if 1 <= idx <= n:
            coeffs[idx - 1] += sign
    return Weight(n, coeffs)


class Partition(_Value):
    """Weakly decreasing tuple of nonnegative integers; trailing zeros ignored."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(map(operator.index, parts))
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    def size(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def padded(self, length):
        if length < len(self.parts):
            raise RankMismatchError(
                "partition with %d rows does not fit in %d variables"
                % (len(self.parts), length)
            )
        return self.parts + (0,) * (length - len(self.parts))

    def conjugate(self):
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= j)
                for j in range(1, self.parts[0] + 1)
            )
        )

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)


def weight_to_bounding_partition(lam):
    """Bounding partition (sum_{i>=1} m_i, sum_{i>=2} m_i, ..., m_n, 0).

    Only defined for dominant lam; the result has n+1 parts counting the
    final zero, i.e. length <= n as a partition.
    """
    if not lam.is_dominant():
        raise ValueError("bounding partition requires a dominant weight")
    tails = []
    total = 0
    for c in reversed(lam.coeffs):
        total += c
        tails.append(total)
    tails.reverse()
    return Partition(tuple(tails) + (0,))


def partition_to_weight(p, n):
    """Inverse of the bounding map: m_i = p_i - p_{i+1}, dropping p_{n+1}.

    Any partition with at most n+1 rows is accepted; a nonzero (n+1)-st part
    corresponds to determinant columns, which do not change the sl-weight.
    """
    padded = Partition(p).padded(n + 1)
    return Weight(n, tuple(padded[i] - padded[i + 1] for i in range(n)))
