"""Identity verification and filtration bookkeeping.

Every verify_* helper recomputes both sides of an identity from scratch
(closed form vs brute-force product) and returns a VerificationReport;
characters are compared with exact equality. extract_filtration is the one
place that spells out the layer data of the graded filtrations of
two-factor tensor products at any rank n >= 2 (truncated modules for
W(m omega_1) tensor W(k omega_n), M modules for the two squares), and the
filtration checks sum exactly those published layers (layer character
times multiplicity, det-twisted to the product's total degree). The
fusion-side functions check the rank-2 dimension recurrences of the
fusion modules M_j: each of the four recurrences is written once, one
generator yields the cases of both grids (a skip when a hypothesis fails,
after the applicable cases of that grid point), and one comparison turns
them into reports.
"""

from __future__ import annotations

import itertools
import operator

from .charformulas import (
    _M_MODULE_VARIANTS,
    _homogeneous_sum,
    _lookup,
    _pair_weights,
    _tensor_product,
    _term_count,
    m_module_char,
    truncated_char,
    tensor_char_fundamental,
)
from .qalg import q_binomial
from .weights import Partition, RankMismatchError, Root, Weight, _Value, pairing

# each filtration family: the tensor variant of the product it filters, and
# the m_module_char variant of its layers (None: truncated modules)
_FAMILIES = {"truncated": ("omega1_omegan", None)} | {
    "m_module_" + v: (square, v) for v, square in _M_MODULE_VARIANTS.items()
}


class VerificationReport(_Value):
    """Outcome of one identity check: status is 'pass', 'fail' or 'skip'."""

    __slots__ = ("name", "params", "status", "detail")
    __hash__ = None  # equality reads the params and detail dicts

    def __init__(self, name, params, status, detail=None):
        _Value.__init__(self, name, params, status, {} if detail is None else detail)

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        return {
            "identity": self.name,
            "params": self.params,
            "status": self.status,
            "detail": self.detail,
        }


def _report(name, params, ok, detail=None):
    return VerificationReport(name, params, "pass" if ok else "fail", detail)


def _skip(name, params, reason):
    return VerificationReport(name, params, "skip", {"reason": reason})


def verify_tensor_fundamental(variant, m, k, rank):
    """Closed tensor formula vs the brute product of graded Weyl characters."""
    closed = tensor_char_fundamental(variant, m, k, rank)
    params = {"variant": variant, "m": m, "k": k, "rank": rank}
    return _check_product("tensor-fundamental", params, variant, closed)


def verify_truncated_product(m, k, rank):
    """W(m*omega_1) tensor W(k*omega_n) filters by truncated modules.

    ch of the product is the sum of extract_filtration's "truncated" layers.
    """
    params = {"m": m, "k": k, "rank": rank}
    return _verify_filtration("truncated-product", params, "truncated")


def verify_m_module_product(variant, m, k, rank):
    """Tensor square of a fundamental-line Weyl module filters by M modules.

    variant "first" squares along omega_1, "last" along omega_n; ch of the
    product is the sum of extract_filtration's "m_module_<variant>" layers.
    """
    _lookup(_M_MODULE_VARIANTS, variant)  # before a family name is built from it
    params = {"variant": variant, "m": m, "k": k, "rank": rank}
    return _verify_filtration("m-module-product", params, "m_module_" + variant)


def _verify_filtration(name, params, family):
    """Brute product of the two factors that family filters vs its layers.

    The layers are those extract_filtration publishes: each layer character
    times its multiplicity, det-twisted to the product's total degree.
    """
    rank = params["rank"]
    layers = extract_filtration(params["m"], params["k"], family, rank)
    total = _homogeneous_sum(
        rank, ((layer_character(layer, rank), layer.multiplicity) for layer in layers)
    )
    return _check_product(name, params, _FAMILIES[family][0], total)


def _check_product(name, params, variant, closed):
    """Pass when closed is the brute product of variant's factors at params."""
    product = _tensor_product(variant, params["m"], params["k"], params["rank"])
    return _report(name, params, product == closed, {"terms": _term_count(closed)})


def truncated_dim_check(lam, j):
    """Dimension of the truncated module: (n(n+2))^j (n+1)^{|lam| - 2j}.

    n(n+2) is the dimension of the adjoint module and n+1 that of
    V(omega_1) and V(omega_n); |lam| = lam(h_theta).
    """
    n = lam.n
    dim = truncated_char(lam, j).q1_dimension()
    expected = (n * (n + 2)) ** j * (n + 1) ** (pairing(lam, Root.highest(n)) - 2 * j)
    return _report(
        "truncated-dim",
        {"weight": list(lam.coeffs), "j": j},
        dim == expected,
        {"dimension": dim, "expected": expected},
    )


class FiltrationLayer(_Value):
    """One graded layer family of a tensor-product filtration.

    multiplicity counts the layers of each grade shift: the number of layers
    shifted by q^l equals the coefficient of q^l, and shift_bound is the
    largest shift that occurs (the degree of the multiplicity polynomial).
    """

    __slots__ = ("family", "index", "params", "multiplicity", "shift_bound")
    __hash__ = None  # equality reads the params dict

    def __init__(self, family, index, params, multiplicity, shift_bound):
        _Value.__init__(self, family, index, params, multiplicity, shift_bound)

    def to_json(self):
        return {
            "family": self.family,
            "index": self.index,
            "params": self.params,
            "multiplicity": self.multiplicity.coefficient_list(),
            "shift_bound": self.shift_bound,
        }


def layer_character(layer, rank):
    """Graded character of a single (unshifted) layer module."""
    if layer.family not in _FAMILIES:
        raise ValueError("unknown layer family %r" % (layer.family,))
    variant = _FAMILIES[layer.family][1]
    if variant is None:
        w = Weight(rank, layer.params["weight"])
        j = pairing(w, Root.highest(rank)) - layer.params["truncation"]
        return truncated_char(w, j)
    return m_module_char(
        Weight(rank, tuple(layer.params["nu"])), layer.params["lam_scale"], variant
    )


def extract_filtration(m, k, family, rank=2):
    """Layer data of the filtration of a two-line tensor product.

    All families need rank n >= 2 and m, k >= 0; the weights are listed in
    full, n coefficients each. Family "truncated" filters W(m*omega_1)
    tensor W(k*omega_n), "m_module_first"/"m_module_last" W(m*omega_e)
    tensor W(k*omega_e) for e = 1 resp. n. With omega_a, omega_b the two
    factors' fundamentals, layer r tops at m*omega_a + k*omega_b -
    r*alpha_ab: it is the truncated module W_{max(m,k)-r} at that weight, or
    M(nu, 2(L-r) omega_e) with nu that weight less 2(L-r) omega_e,
    L = min(m,k). Each layer carries multiplicity polynomial [L r]_q, and
    its grade shifts are bounded by (L-r)*r, that degree.
    """
    if family not in _FAMILIES:
        raise ValueError("unknown filtration family %r" % (family,))
    m, k, rank = operator.index(m), operator.index(k), operator.index(rank)
    if rank < 2:
        raise RankMismatchError("tensor-product filtrations require rank >= 2")
    if m < 0 or k < 0:
        raise ValueError("module parameters must be nonnegative")
    tensor, variant = _FAMILIES[family]
    omega, lam, beta = _pair_weights(tensor, m, k, rank)
    big, small = max(m, k), min(m, k)
    layers = []
    for r in range(small + 1):
        top = lam - r * beta
        if variant is None:
            params = {"weight": list(top.coeffs), "truncation": big - r}
        else:
            nu = top - 2 * (small - r) * omega
            params = {"nu": list(nu.coeffs), "lam_scale": small - r}
        layers.append(
            FiltrationLayer(family, r, params, q_binomial(small, r), (small - r) * r)
        )
    return layers


# ---------------------------------------------------------------------------
# rank-2 fusion modules M_j(lambda_1, lambda_2, lambda_3)


def _w(a, b):
    return Weight(2, (a, b))


def _h(lam, i):
    return lam.coeffs[i - 1]


_ZERO, _OM1, _OM2, _THETA = _w(0, 0), _w(1, 0), _w(0, 1), _w(1, 1)


def fusion_dim(j, lam1, lam2, lam3):
    """Dimension 10^{lam3(h_theta)} 6^{lam2(h_theta)} 3^{lam1(h_theta)} 8^j.

    The three weights are rank-2 dominant weights; the atoms have dimensions
    3, 6, 10 (level-1, 2, 3 Demazure modules at a fundamental weight) and 8
    (the adjoint module).
    """
    j = operator.index(j)
    if j < 0:
        raise ValueError("fusion index j must be nonnegative")
    for lam in (lam1, lam2, lam3):
        if lam.n != 2:
            raise ValueError("fusion modules are rank-2 objects")
        if not lam.is_dominant():
            raise ValueError("fusion weights must be dominant")
    theta = Root.highest(2)
    return (
        10 ** pairing(lam3, theta)
        * 6 ** pairing(lam2, theta)
        * 3 ** pairing(lam1, theta)
        * 8**j
    )


class XiTuple(_Value):
    """Per-root partition data xi attached to a fusion module M_j.

    For each positive root alpha the tuple lists one entry per atom, largest
    first: 3 repeated lam3(h_alpha) times, then 2, then 1, with the adjoint
    factor folding into the 2s for theta and into the 1s for the simple
    roots. The sizes satisfy |xi^alpha| = (lam1 + 2 lam2 + 3 lam3 +
    j*theta)(h_alpha).
    """

    __slots__ = ("j", "lam1", "lam2", "lam3")

    def __init__(self, j, lam1, lam2, lam3):
        _Value.__init__(self, j, lam1, lam2, lam3)

    def xi(self, alpha):
        two_extra = self.j if (alpha.i, alpha.j) == (1, 2) else 0
        one_extra = self.j if alpha.i == alpha.j else 0
        parts = (
            (3,) * pairing(self.lam3, alpha)
            + (2,) * (pairing(self.lam2, alpha) + two_extra)
            + (1,) * (pairing(self.lam1, alpha) + one_extra)
        )
        return Partition(parts)

    def size_ok(self):
        target = self.lam1 + 2 * self.lam2 + 3 * self.lam3 + self.j * _THETA
        return all(
            self.xi(alpha).size() == pairing(target, alpha)
            for alpha in (Root(1, 1), Root(2, 2), Root(1, 2))
        )


# Each recurrence returns the (j, lam1, lam2, lam3) of the layers of a short
# exact sequence or two-step filtration of M_j(lam1, lam2, lam3); the j = 1
# recurrences take the edge pair (e, f) = (omega_1, omega_2), or (omega_2,
# omega_1) for the mirrors.


def _j1_lam1_zero(e, f, lam2, lam3):
    """(i) j = 1, lam1 = 0, lam2(h_e) >= 1: two layers."""
    return (0, e, lam2 - e + f, lam3), (0, f, lam2 - e, lam3 + e)


def _j1(e, f, lam1, lam2, lam3):
    """(ii) j = 1, lam1(h_e) >= 1: two layers."""
    return (0, lam1 - e, lam2 + f, lam3), (0, lam1 - e + f, lam2 + e, lam3)


def _jgeq2_lam1_zero(j, lam2, lam3):
    """(iii) j >= 2, lam1 = 0: three layers."""
    return (
        (j - 2, _ZERO, lam2 + _THETA, lam3),
        (j - 2, _OM2, lam2 + _OM2, lam3),
        (j - 2, _ZERO, lam2, lam3 + _OM1),
    )


def _jgeq2(j, lam1, lam2, lam3):
    """(iv) j >= 2, lam1(h_1) >= 1: three layers."""
    return (
        (j - 2, lam1, lam2 + _THETA, lam3),
        (j - 1, lam1 - _OM1, lam2 + _OM2, lam3),
        (j - 2, lam1 - _OM1, lam2 + 2 * _OM1, lam3),
    )


def _fusion_cases(grid, max_j):
    """Yield (params, module, layers, skip reason) for every case.

    Family A sweeps lam2, lam3 at lam1 in {0, omega_1, omega_2}; family B
    sweeps lam1, lam2 at lam3 = 0. module is the (j, lam1, lam2, lam3) of
    M_j. A case whose hypothesis fails yields module and layers None and
    its reason, after every applicable case of its grid point; family B
    is one skip, case "lambda3_zero", when lam1(h_1) = 0.
    """
    js = range(2, max_j + 1)
    for lam2, lam3 in itertools.product(grid, grid):
        point = {"lam2": list(lam2.coeffs), "lam3": list(lam3.coeffs)}
        skips = []
        for i, e, f, mirror in ((1, _OM1, _OM2, ""), (2, _OM2, _OM1, "_mirror")):
            params = {**point, "case": "j1_lambda1_zero" + mirror}
            if _h(lam2, i) >= 1:
                layers = _j1_lam1_zero(e, f, lam2, lam3)
                yield params, (1, _ZERO, lam2, lam3), layers, None
            else:
                skips.append((params, None, None, "needs lam2(h_%d) >= 1" % i))
            params = {**point, "case": "j1_lambda1_omega%d%s" % (i, mirror)}
            yield params, (1, e, lam2, lam3), _j1(e, f, e, lam2, lam3), None
        for j in js:
            params = {**point, "j": j, "case": "jgeq2_lambda1_zero"}
            yield params, (j, _ZERO, lam2, lam3), _jgeq2_lam1_zero(j, lam2, lam3), None
            params = {**point, "j": j, "case": "jgeq2_lambda1_omega1"}
            yield params, (j, _OM1, lam2, lam3), _jgeq2(j, _OM1, lam2, lam3), None
        yield from skips
    for lam1, lam2 in itertools.product(grid, grid):
        point = {"lam1": list(lam1.coeffs), "lam2": list(lam2.coeffs)}
        if _h(lam1, 1) < 1:
            yield {**point, "case": "lambda3_zero"}, None, None, "needs lam1(h_1) >= 1"
            continue
        layers = _j1(_OM1, _OM2, lam1, lam2, _ZERO)
        yield {**point, "case": "lambda3_zero_j1"}, (1, lam1, lam2, _ZERO), layers, None
        for j in js:
            params = {**point, "j": j, "case": "lambda3_zero_jgeq2"}
            yield params, (j, lam1, lam2, _ZERO), _jgeq2(j, lam1, lam2, _ZERO), None


def verify_fusion_recurrences(max_pairing=3, max_j=4):
    """Check every fusion dimension recurrence over a grid of weights.

    Sweeps rank-2 dominant weights with pairings with theta <= max_pairing
    and j <= max_j. Each case passes when dim M_j equals the sum of its
    layers' dimensions; an inapplicable hypothesis is reported as a skip,
    after the applicable cases of its grid point, so the grid is visibly
    covered.
    """
    grid = [
        _w(a, b)
        for a in range(max_pairing + 1)
        for b in range(max_pairing + 1)
        if a + b <= max_pairing
    ]
    return [
        _skip("fusion-recurrences", params, reason)
        if reason is not None
        else _report(
            "fusion-recurrences",
            params,
            fusion_dim(*module) == sum(fusion_dim(*layer) for layer in layers),
        )
        for params, module, layers, reason in _fusion_cases(grid, max_j)
    ]
