"""Identity suites: the grids of exact checks behind `weylchar verify`.

Each suite runner returns one VerificationReport per instance, in a fixed
order. SUITES maps a suite name to its runner and its default m, k bound
(None for a suite without one); `run` looks a suite up there. The CLI and
the acceptance tests both run the suites through `run`.

The package's top level does not import this module, so `import weylchar`
stays as cheap as the library itself.
"""

from __future__ import annotations

import itertools

from .charformulas import (
    _M_MODULE_VARIANTS,
    TENSOR_VARIANTS,
    _homogeneous_sum,
    char_multiply,
    pop_char,
    product_onerow,
    qwhittaker_char,
    qwhittaker_partition_char,
)
from .filtration import (
    _report,
    truncated_dim_check,
    verify_fusion_recurrences,
    verify_m_module_product,
    verify_tensor_fundamental,
    verify_truncated_product,
)
from .gtpop import bounded_partitions, pop_count
from .qalg import QPoly, q_binomial, q_pochhammer
from .weights import Partition, Weight


def small_weights(rank, max_sum):
    """Dominant weights with coefficient sum <= max_sum, lexicographic."""
    return [
        Weight(rank, coeffs)
        for coeffs in itertools.product(range(max_sum + 1), repeat=rank)
        if sum(coeffs) <= max_sum
    ]


def bounded_mus(max_rows, max_part):
    """Partitions of at most max_rows parts, each at most max_part.

    Shorter partitions come first; those of one length come in
    lexicographic order, starting with the empty partition.
    """
    for length in range(max_rows + 1):
        for parts in bounded_partitions(length, max_part - 1):
            yield Partition(p + 1 for p in parts)


def two_var_product(j):
    """Coefficients of prod_{t=0}^{j-1} (x - q^t) as {x-power: QPoly}."""
    coeffs = {0: QPoly.one()}
    for t in range(j):
        nxt = {}
        for r, poly in coeffs.items():
            nxt[r + 1] = nxt.get(r + 1, QPoly.zero()) + poly
            nxt[r] = nxt.get(r, QPoly.zero()) - poly * QPoly.q(t)
        coeffs = {r: p for r, p in nxt.items() if not p.is_zero()}
    return coeffs


def alternating_expansion(j):
    """{r: (-1)^{j-r} [j r]_q q^{binom(j-r, 2)}}, the expanded form."""
    out = {}
    for r in range(j + 1):
        sign = 1 if (j - r) % 2 == 0 else -1
        exp = (j - r) * (j - r - 1) // 2
        poly = q_binomial(j, r) * QPoly({exp: sign})
        if not poly.is_zero():
            out[r] = poly
    return out


def _mk_grid(check, ranks, variants, max_mk):
    """check(variant, m, k, rank) by rank, then variant, m and k up to max_mk."""
    return [
        check(variant, m, k, rank)
        for rank in ranks
        for variant in variants
        for m in range(max_mk + 1)
        for k in range(max_mk + 1)
    ]


def _tensor_fundamental(max_mk):
    return _mk_grid(verify_tensor_fundamental, (2, 3), TENSOR_VARIANTS, max_mk)


def _truncated_product(max_mk):
    return _mk_grid(
        lambda _, m, k, n: verify_truncated_product(m, k, n), (2,), (None,), max_mk
    )


def _m_module_product(max_mk):
    return _mk_grid(verify_m_module_product, (2, 3), _M_MODULE_VARIANTS, max_mk)


def _truncated_dim():
    return [
        truncated_dim_check(Weight(2, (m1, m2)), j)
        for m1 in range(9)
        for m2 in range(9 - m1)
        for j in range(min(m1, m2) + 1)
    ]


def _fusion():
    return verify_fusion_recurrences(max_pairing=3, max_j=4)


def _qbinomial():
    reports = [
        _report(
            "qbinomial-identity",
            {"j": j, "form": "two-variable"},
            two_var_product(j) == alternating_expansion(j),
        )
        for j in range(13)
    ]
    for j in range(13):
        for big_m in range(j, 21):
            total = QPoly.zero()
            for r in range(j + 1):
                sign = 1 if r % 2 == 0 else -1
                exp = r * (big_m - j + r) - r * (r - 1) // 2
                total = total + q_binomial(j, r) * QPoly({exp: sign})
            expected = q_binomial(big_m, j) * q_pochhammer(j)
            reports.append(
                _report(
                    "qbinomial-identity",
                    {"j": j, "M": big_m, "form": "evaluated"},
                    total == expected,
                )
            )
    return reports


def _oracle():
    reports = []
    for rank in (1, 2, 3):
        for lam in small_weights(rank, 4):
            a = qwhittaker_char(lam)
            b = pop_char(lam)
            ok = a == b and pop_count(lam) == b.q1_dimension()
            reports.append(
                _report(
                    "oracle-equivalence", {"rank": rank, "weight": list(lam.coeffs)}, ok
                )
            )
    return reports


def _pieri():
    reports = []
    for rank in (1, 2, 3):
        for mu in bounded_mus(min(3, rank + 1), 4):
            base = qwhittaker_partition_char(mu, rank)
            for m in range(5):
                brute = char_multiply(
                    base, qwhittaker_partition_char(Partition((m,)), rank)
                )
                terms = [
                    (qwhittaker_partition_char(lam, rank), poly)
                    for lam, poly in product_onerow(m, mu, rank)
                ]
                total = _homogeneous_sum(rank, terms)
                reports.append(
                    _report(
                        "pieri",
                        {"rank": rank, "mu": list(mu.parts), "m": m},
                        brute == total,
                    )
                )
    return reports


SUITES = {
    "tensor-fundamental": (_tensor_fundamental, 5),
    "truncated-product": (_truncated_product, 4),
    "m-module-product": (_m_module_product, 4),
    "truncated-dim": (_truncated_dim, None),
    "fusion-recurrences": (_fusion, None),
    "qbinomial-identity": (_qbinomial, None),
    "oracle-equivalence": (_oracle, None),
    "pieri": (_pieri, None),
}


def run(name, max_mk=None):
    """Reports of the suite `name`, KeyError for an unknown one.

    max_mk bounds m and k in a suite that has such a bound (None keeps its
    default) and is ignored by the others.
    """
    if max_mk is not None and max_mk < 0:
        raise ValueError("the m, k bound must be nonnegative, got %d" % max_mk)
    runner, default_mk = SUITES[name]
    if default_mk is None:
        return runner()
    return runner(default_mk if max_mk is None else max_mk)
