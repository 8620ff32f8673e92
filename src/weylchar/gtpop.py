"""Gelfand-Tsetlin patterns and partition-overlaid patterns (POPs).

A pattern for a dominant weight of rank n is a triangle of n+1 rows, row i
holding i entries, whose bottom row is the bounding partition of the weight
and whose consecutive rows interlace. A POP decorates every cell (j, i),
1 <= i <= j <= n, with a partition having exactly row(j+1)[i] - row(j)[i]
parts (zeros allowed), each part at most row(j)[i] - row(j+1)[i+1].

POPs index a graded basis of the local Weyl module: the overlay part sizes
record t-exponents of lowering operators, and the total box count is the
t-degree of the resulting basis word.
"""

from __future__ import annotations

import itertools
import math
import operator
from types import MappingProxyType

from .weights import Partition, Weight, _Value, weight_to_bounding_partition


class GTPattern(_Value):
    """Triangular interlacing pattern; rows[0] is the single-entry top row."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        if not rows:
            raise ValueError("pattern needs at least one row")
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError("row %d must have %d entries" % (i, i))
        bottom = rows[-1]
        if any(bottom[k] < bottom[k + 1] for k in range(len(bottom) - 1)):
            raise ValueError("bottom row must be weakly decreasing")
        if bottom and bottom[-1] < 0:
            raise ValueError("entries must be nonnegative")
        for i in range(1, len(rows)):
            upper, lower = rows[i - 1], rows[i]
            for k in range(len(upper)):
                if lower[k] - upper[k] < 0 or upper[k] - lower[k + 1] < 0:
                    raise ValueError("rows %d and %d fail to interlace" % (i, i + 1))
        object.__setattr__(self, "rows", rows)

    @property
    def n(self):
        return len(self.rows) - 1

    def entry(self, i, k):
        """Entry k of row i, both 1-based."""
        return self.rows[i - 1][k - 1]

    def bounding(self):
        return Partition(self.rows[-1])

    def __repr__(self):
        return "GTPattern(%r)" % (self.rows,)

    def to_json(self):
        return {"rows": [list(row) for row in self.rows]}


def _bounding_tuple(source, n):
    """Normalize a weight / partition / tuple into an (n+1)-entry bottom row."""
    if isinstance(source, Weight):
        if source.n != n:
            raise ValueError("weight rank does not match the requested rank")
        return weight_to_bounding_partition(source).padded(n + 1)
    return Partition(source).padded(n + 1)


def enumerate_gt(bounding, n):
    """All patterns with the given bottom row, sorted lexicographically.

    The sort key is the concatenation of the rows, top row first, so the
    order is deterministic and documented. `bounding` may be a dominant
    Weight of rank n, a Partition, or a plain tuple with at most n+1 parts.
    """
    bottom = _bounding_tuple(bounding, n)

    def climb(lower):
        # all rows interlacing below `lower`, built top-down recursively
        if len(lower) == 1:
            yield (lower,)
            return
        ranges = [
            range(lower[k + 1], lower[k] + 1) for k in range(len(lower) - 1)
        ]
        # upper_k in [lower_{k+1}, lower_k] keeps every upper row weakly decreasing
        for upper in itertools.product(*ranges):
            for stack in climb(upper):
                yield stack + (lower,)

    patterns = [GTPattern(stack) for stack in climb(bottom)]
    patterns.sort(key=lambda p: tuple(itertools.chain.from_iterable(p.rows)))
    return patterns


def pattern_weight(pattern):
    """gl-weight of a pattern: entry k is sum(row k) - sum(row k-1)."""
    sums = [sum(row) for row in pattern.rows]
    return tuple(
        sums[k] - (sums[k - 1] if k else 0) for k in range(len(sums))
    )


def cell_bounds(pattern, j, i):
    """(number of parts, max part size) for the overlay at cell (j, i)."""
    if not 1 <= i <= j <= pattern.n:
        raise ValueError("cell (%d, %d) out of range" % (j, i))
    a = pattern.entry(j + 1, i) - pattern.entry(j, i)
    b = pattern.entry(j, i) - pattern.entry(j + 1, i + 1)
    return a, b


def cells(n):
    """All overlay cells (j, i), row-major: (1,1) < (2,1) < (2,2) < ..."""
    return [(j, i) for j in range(1, n + 1) for i in range(1, j + 1)]


def bounded_partitions(parts, bound):
    """Weakly decreasing tuples of length `parts` with entries in [0, bound].

    Yielded in ascending lexicographic order; there are C(parts+bound, parts)
    of them.
    """
    if parts == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in bounded_partitions(parts - 1, first):
            yield (first,) + rest


class POP(_Value):
    """Partition-overlaid pattern: a GTPattern plus one overlay per cell.

    overlays is a read-only view {(j, i): parts}, so a POP keeps its hash.
    """

    __slots__ = ("pattern", "overlays")

    def __init__(self, pattern, overlays):
        overlays = {
            (operator.index(j), operator.index(i)): tuple(map(operator.index, parts))
            for (j, i), parts in overlays.items()
        }
        expected = set(cells(pattern.n))
        if set(overlays) != expected:
            raise ValueError("overlays must cover exactly the cells (j, i), i <= j <= n")
        for (j, i), parts in overlays.items():
            a, b = cell_bounds(pattern, j, i)
            if len(parts) != a:
                raise ValueError("overlay at (%d, %d) needs exactly %d parts" % (j, i, a))
            if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
                raise ValueError("overlay parts must be weakly decreasing")
            if parts and (parts[0] > b or parts[-1] < 0):
                raise ValueError("overlay parts at (%d, %d) must lie in [0, %d]" % (j, i, b))
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "overlays", MappingProxyType(overlays))

    def overlay(self, j, i):
        return self.overlays[(j, i)]

    def box_count(self, j, i):
        """Number of boxes of the overlay at (j, i)."""
        return sum(self.overlays[(j, i)])

    def r_data(self, j, i):
        """Multiplicity map {part size s: count r(s)}, zero counts omitted."""
        data = {}
        for p in self.overlays[(j, i)]:
            data[p] = data.get(p, 0) + 1
        return data

    def __hash__(self):
        return hash((self.pattern, tuple(sorted(self.overlays.items()))))

    def __repr__(self):
        return "POP(%r, %r)" % (self.pattern, dict(self.overlays))

    def to_json(self):
        return {
            "pattern": self.pattern.to_json()["rows"],
            "overlays": {
                "%d,%d" % cell: list(parts)
                for cell, parts in sorted(self.overlays.items())
            },
            "grade": pop_grade(self),
            "weight": list(pattern_weight(self.pattern)),
        }


def enumerate_pops(bounding, n):
    """Generate every POP over every pattern for the given bounding data.

    Streaming: patterns are visited in enumerate_gt order and overlay
    combinations per pattern in ascending per-cell lexicographic order
    (cells row-major), so the overall order is deterministic.
    """
    cell_list = cells(n)
    for pattern in enumerate_gt(bounding, n):
        choices = [
            list(bounded_partitions(*cell_bounds(pattern, j, i)))
            for j, i in cell_list
        ]
        for combo in itertools.product(*choices):
            yield POP(pattern, dict(zip(cell_list, combo)))


def pop_grade(pop):
    """Total number of boxes across all overlays; the t-degree of the word."""
    return sum(sum(parts) for parts in pop.overlays.values())


def pop_count(lam):
    """Number of POPs for a dominant weight: prod_i C(n+1, i)^{m_i}."""
    if not lam.is_dominant():
        raise ValueError("POPs are indexed by dominant weights")
    out = 1
    for i, m in enumerate(lam.coeffs, start=1):
        out *= math.comb(lam.n + 1, i) ** m
    return out


def pop_compare(a, b):
    """Total order on POPs with a common bounding row; returns -1, 0 or 1.

    Scanning cells from the greatest (row-major) cell downward:
    first, at the greatest cell where the overlay box counts differ, the
    element with the SMALLER box count is the greater one; if all box counts
    agree, at the greatest cell where the part-multiplicity data differ,
    compare the multiplicities of the largest part size on which they
    disagree, and the element with more such parts is the greater one.
    """
    if a.pattern.rows[-1] != b.pattern.rows[-1]:
        raise ValueError("cannot compare POPs with different bounding rows")
    scan = list(reversed(cells(a.pattern.n)))
    for cell in scan:
        ca, cb = a.box_count(*cell), b.box_count(*cell)
        if ca != cb:
            return 1 if ca < cb else -1
    for cell in scan:
        ra, rb = a.r_data(*cell), b.r_data(*cell)
        if ra != rb:
            s = max(k for k in set(ra) | set(rb) if ra.get(k, 0) != rb.get(k, 0))
            return 1 if ra.get(s, 0) > rb.get(s, 0) else -1
    return 0


def lowest_weight_pop(lam):
    """The POP attached to the lowest weight vector: the minimal pattern with
    all-zero overlays; the word exponent of y_{ij} comes out as m_{n-j+i}."""
    bottom = _bounding_tuple(lam, lam.n)
    rows = [bottom[len(bottom) - r :] for r in range(1, len(bottom) + 1)]
    pattern = GTPattern(rows)
    overlays = {}
    for j, i in cells(lam.n):
        a, _ = cell_bounds(pattern, j, i)
        overlays[(j, i)] = (0,) * a
    return POP(pattern, overlays)


class BasisWord(_Value):
    """Ordered product of root-vector factors (y_{ij} tensor t^s)^{r(s)}.

    factors is a tuple of ((i, j), powers) pairs in word order: blocks
    y_1 y_2 ... y_n with y_j = y_{1j} y_{2j} ... y_{jj}; powers maps the
    t-exponent s to its multiplicity r(s) (zero multiplicities omitted), as
    a read-only view.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(
            (
                (operator.index(i), operator.index(j)),
                MappingProxyType(
                    dict(sorted(tuple(map(operator.index, p)) for p in powers.items()))
                ),
            )
            for (i, j), powers in factors
        )
        for (i, j), powers in factors:
            if not 1 <= i <= j:
                raise ValueError("root indices must satisfy 1 <= i <= j")
            if any(s < 0 or r < 1 for s, r in powers.items()):
                raise ValueError("powers map part sizes >= 0 to multiplicities >= 1")
        object.__setattr__(self, "factors", factors)

    def t_degree(self):
        return sum(
            s * r for _, powers in self.factors for s, r in powers.items()
        )

    def total_exponent(self, i, j):
        """Total power of y_{ij} across its t-graded factors."""
        for (fi, fj), powers in self.factors:
            if (fi, fj) == (i, j):
                return sum(powers.values())
        return 0

    def __hash__(self):
        return hash(
            tuple((root, tuple(sorted(p.items()))) for root, p in self.factors)
        )

    def __str__(self):
        pieces = []
        for (i, j), powers in self.factors:
            for s, r in powers.items():
                pieces.append("(y[%d,%d] t^%d)^%d" % (i, j, s, r))
        return " ".join(pieces) if pieces else "1"

    def __repr__(self):
        return "BasisWord(%r)" % (tuple((root, dict(p)) for root, p in self.factors),)

    def to_json(self):
        return [
            {"root": [i, j], "powers": {str(s): r for s, r in powers.items()}}
            for (i, j), powers in self.factors
        ]


def basis_word(pop):
    """Word of lowering operators attached to a POP.

    The overlay at cell (j, i) contributes the factor
    prod_s (y_{ij} tensor t^s)^{r(s)}, and cells are taken row-major, which
    spells out the word y_1 y_2 ... y_n with y_j = y_{1j} y_{2j} ... y_{jj}.
    The total power of y_{ij} is the overlay's part count, so its t-degree
    is the overlay's box count and the word degree is the POP grade.
    """
    return BasisWord(
        ((i, j), pop.r_data(j, i)) for j, i in cells(pop.pattern.n) if pop.overlay(j, i)
    )
