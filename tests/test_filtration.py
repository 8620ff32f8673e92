from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Hashable

import pytest

from weylchar import (
    BasisWord,
    FiltrationLayer,
    GTPattern,
    GradedCharacter,
    POP,
    Partition,
    QPoly,
    RankMismatchError,
    Root,
    VerificationReport,
    Weight,
    XiTuple,
    extract_filtration,
    fusion_dim,
    layer_character,
    lowest_weight_pop,
    pairing,
    q_binomial,
    qwhittaker_char,
    truncated_char,
    truncated_dim_check,
    verify_fusion_recurrences,
    verify_m_module_product,
    verify_tensor_fundamental,
    verify_truncated_product,
)
from weylchar import filtration
from weylchar.weights import _Value


def w2(a, b):
    return Weight(2, (a, b))


def w3(a, b, c):
    return Weight(3, (a, b, c))


VALUES = [
    (VerificationReport("x", {}, "pass"), "status"),
    (FiltrationLayer("truncated", 0, {}, QPoly.one(), 0), "multiplicity"),
    (XiTuple(1, w2(1, 0), w2(0, 1), w2(1, 1)), "lam2"),
]


# one value of every _Value subclass, built afresh on each call
VALUE_FACTORIES = {
    Weight: lambda: Weight(2, (1, 0)),
    Root: lambda: Root(1, 2),
    Partition: lambda: Partition((2, 1)),
    QPoly: lambda: QPoly({0: 1, 2: 3}),
    GradedCharacter: lambda: GradedCharacter(1, {(1, 0): QPoly.q(), (0, 1): QPoly.q()}),
    GTPattern: lambda: GTPattern([(0,), (1, 0)]),
    POP: lambda: lowest_weight_pop(Weight(1, (1,))),
    BasisWord: lambda: BasisWord([((1, 1), {0: 1})]),
    VerificationReport: lambda: VerificationReport("x", {}, "pass"),
    FiltrationLayer: lambda: FiltrationLayer("truncated", 0, {}, QPoly.one(), 0),
    XiTuple: lambda: XiTuple(1, w2(1, 0), w2(0, 1), w2(1, 1)),
}
# their fields hold dicts, or (GradedCharacter) equality reads the terms
UNHASHABLE = {GradedCharacter, VerificationReport, FiltrationLayer}


@pytest.mark.parametrize("obj,attr", VALUES)
def test_immutable(obj, attr):
    with pytest.raises(AttributeError, match="%s is immutable" % type(obj).__name__):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError, match="%s is immutable" % type(obj).__name__):
        delattr(obj, attr)


class TestValues:
    def test_report_defaults_to_a_new_detail(self):
        first = VerificationReport("x", {}, "pass")
        assert first.detail == {}
        assert first.detail is not VerificationReport("x", {}, "pass").detail

    def test_keyword_construction(self):
        assert VerificationReport(
            name="x", params={"m": 1}, status="skip", detail={"reason": "n/a"}
        ) == VerificationReport("x", {"m": 1}, "skip", {"reason": "n/a"})
        assert FiltrationLayer(
            family="truncated", index=1, params={}, multiplicity=QPoly.q(),
            shift_bound=1,
        ) == FiltrationLayer("truncated", 1, {}, QPoly.q(), 1)
        assert XiTuple(j=2, lam1=w2(0, 0), lam2=w2(1, 0), lam3=w2(0, 1)) == XiTuple(
            2, w2(0, 0), w2(1, 0), w2(0, 1)
        )

    def test_repr(self):
        assert repr(VerificationReport("x", {}, "pass")) == (
            "VerificationReport(name='x', params={}, status='pass', detail={})"
        )
        layer = FiltrationLayer("truncated", 0, {"truncation": 2}, QPoly.one(), 0)
        assert repr(layer) == (
            "FiltrationLayer(family='truncated', index=0, params={'truncation': 2},"
            " multiplicity=QPoly({0: 1}), shift_bound=0)"
        )
        assert repr(XiTuple(1, w2(1, 0), w2(0, 1), w2(1, 1))) == (
            "XiTuple(j=1, lam1=Weight(2, (1, 0)), lam2=Weight(2, (0, 1)),"
            " lam3=Weight(2, (1, 1)))"
        )

    def test_every_value_class_is_covered(self):
        assert set(_Value.__subclasses__()) == set(VALUE_FACTORIES)

    def test_equal_values_hash_equal(self):
        for cls, factory in VALUE_FACTORIES.items():
            a, b = factory(), factory()
            assert a is not b and a == b and not a != b, cls
            if cls in UNHASHABLE:
                with pytest.raises(TypeError):
                    hash(a)
            else:
                assert hash(a) == hash(b), cls
                assert len({a, b}) == 1, cls
        assert XiTuple(1, w2(1, 0), w2(0, 1), w2(1, 1)) != XiTuple(
            2, w2(1, 0), w2(0, 1), w2(1, 1)
        )
        assert extract_filtration(2, 1, "truncated") == extract_filtration(
            2, 1, "truncated"
        )

    def test_equality_needs_the_same_class(self):
        for cls, factory in VALUE_FACTORIES.items():
            value = factory()
            fields = tuple(getattr(value, name) for name in cls.__slots__)
            assert value != fields and value != fields[0], cls
            for other_cls, other in VALUE_FACTORIES.items():
                if other_cls is not cls:
                    assert value != other() and other() != value, (cls, other_cls)
        assert VerificationReport("x", {}, "pass") != VerificationReport("x", {}, "fail")

    def test_hashes_are_the_field_hashes(self):
        assert hash(Weight(2, (1, 0))) == hash((2, (1, 0)))
        assert hash(Root(1, 2)) == hash((1, 2))
        assert hash(Partition((2, 1))) == hash((2, 1))
        assert hash(GTPattern([(0,), (1, 0)])) == hash(((0,), (1, 0)))
        assert hash(XiTuple(1, w2(1, 0), w2(0, 1), w2(1, 1))) == hash(
            (1, w2(1, 0), w2(0, 1), w2(1, 1))
        )

    def test_dict_fields_are_unhashable(self):
        report = VerificationReport("x", {}, "pass")
        layer = FiltrationLayer("truncated", 0, {}, QPoly.one(), 0)
        for value in (report, layer):
            with pytest.raises(TypeError):
                hash(value)
            # and they do not claim otherwise
            assert not isinstance(value, Hashable)


class TestVerificationReport:
    def test_statuses(self):
        ok = VerificationReport("x", {}, "pass")
        bad = VerificationReport("x", {}, "fail")
        skip = VerificationReport("x", {}, "skip", {"reason": "n/a"})
        assert ok.passed and not bad.passed and not skip.passed

    def test_json_shape(self):
        rep = VerificationReport("tensor-fundamental", {"m": 1}, "pass", {"terms": 3})
        assert rep.to_json() == {
            "identity": "tensor-fundamental",
            "params": {"m": 1},
            "status": "pass",
            "detail": {"terms": 3},
        }


class TestIdentityChecks:
    @pytest.mark.parametrize("variant", ["omega1_omegan", "omega1_omega1", "omegan_omegan"])
    def test_tensor_fundamental(self, variant):
        for rank in (2, 3, 4):
            for m, k in itertools.product(range(3), repeat=2):
                assert verify_tensor_fundamental(variant, m, k, rank).passed

    def test_truncated_product(self):
        for rank, bound in ((2, 3), (3, 3), (4, 2)):
            for m, k in itertools.product(range(bound + 1), repeat=2):
                assert verify_truncated_product(m, k, rank).passed

    @pytest.mark.parametrize("variant", ["first", "last"])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_m_module_product(self, variant, rank):
        for m, k in itertools.product(range(3), repeat=2):
            assert verify_m_module_product(variant, m, k, rank).passed

    def test_m_module_bad_variant(self):
        # the variant's own name, not the family name built from it
        with pytest.raises(ValueError, match="^unknown variant 'middle'$"):
            verify_m_module_product("middle", 1, 1, 2)

    def test_truncated_dim_check(self):
        rep = truncated_dim_check(w2(2, 1), 1)
        assert rep.passed
        assert rep.detail["dimension"] == 8 * 3
        for rank in (2, 3, 4):
            om1, omn = Weight.fundamental(rank, 1), Weight.fundamental(rank, rank)
            for a, b in itertools.product(range(4), repeat=2):
                for j in range(min(a, b) + 1):
                    rep = truncated_dim_check(a * om1 + b * omn, j)
                    assert rep.passed
                    assert rep.detail["dimension"] == (
                        (rank * (rank + 2)) ** j * (rank + 1) ** (a + b - 2 * j)
                    )


class TestFiltrationLayers:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            extract_filtration(1, 1, "middle")

    def test_truncated_layers_at_rank_3(self):
        layers = extract_filtration(2, 3, "truncated", rank=3)
        assert [layer.params for layer in layers] == [
            {"weight": [2 - r, 0, 3 - r], "truncation": 3 - r} for r in range(3)
        ]
        # layer r is W_{max(m,k)-r}((m-r) omega_1 + (k-r) omega_3): j = min - r
        assert layer_character(layers[0], 3) == truncated_char(w3(2, 0, 3), 2)
        assert layer_character(layers[2], 3) == qwhittaker_char(w3(0, 0, 1))

    @pytest.mark.parametrize("family", ["truncated", "m_module_first", "m_module_last"])
    def test_negative_parameters_rejected(self, family):
        for m, k in ((-1, 2), (2, -1), (-1, -1)):
            with pytest.raises(ValueError):
                extract_filtration(m, k, family, rank=2)

    def test_truncated_needs_rank_two(self):
        with pytest.raises(RankMismatchError):
            extract_filtration(1, 1, "truncated", rank=1)

    @pytest.mark.parametrize("family", ["truncated", "m_module_first", "m_module_last"])
    @pytest.mark.parametrize("args", [(2.5, 1, 2), (2, 1.0, 2), (2, 1, 2.0)])
    def test_float_parameters_rejected(self, family, args):
        m, k, rank = args
        with pytest.raises(TypeError):
            extract_filtration(m, k, family, rank)

    def test_layer_data(self):
        layers = extract_filtration(3, 2, "truncated")
        assert [layer.index for layer in layers] == [0, 1, 2]
        for r, layer in enumerate(layers):
            assert layer.multiplicity == q_binomial(2, r)
            assert layer.shift_bound == (2 - r) * r
            assert layer.params == {"weight": [3 - r, 2 - r], "truncation": 3 - r}

    def test_shift_bound_is_multiplicity_degree(self):
        for family in ("truncated", "m_module_first", "m_module_last"):
            for m, k in itertools.product(range(5), repeat=2):
                for layer in extract_filtration(m, k, family):
                    assert layer.shift_bound == layer.multiplicity.degree()

    def test_json_round_trip_fields(self):
        layer = extract_filtration(2, 2, "m_module_first", rank=3)[1]
        blob = layer.to_json()
        assert blob["family"] == "m_module_first"
        assert blob["index"] == 1
        assert blob["params"] == {"nu": [0, 1, 0], "lam_scale": 1}
        assert blob["multiplicity"] == q_binomial(2, 1).coefficient_list()
        assert blob["shift_bound"] == 1

    @pytest.mark.parametrize("rank", [0, 1])
    @pytest.mark.parametrize("variant", ["first", "last"])
    def test_m_module_needs_rank_two(self, variant, rank):
        with pytest.raises(RankMismatchError):
            extract_filtration(2, 1, "m_module_" + variant, rank)
        with pytest.raises(RankMismatchError):
            verify_m_module_product(variant, 2, 1, rank)

    @pytest.mark.parametrize(
        "check",
        [lambda: verify_truncated_product(2, 2, 2),
         lambda: verify_m_module_product("last", 2, 2, 3)],
        ids=["truncated", "m_module_last"],
    )
    def test_checks_sum_the_published_layers(self, check, monkeypatch):
        # a wrong multiplicity on one published layer must fail the check
        def tampered(*args):
            layers = extract_filtration(*args)
            last = layers[-1]
            layers[-1] = FiltrationLayer(
                last.family, last.index, last.params, QPoly.const(2), last.shift_bound
            )
            return layers

        assert check().passed
        monkeypatch.setattr(filtration, "extract_filtration", tampered)
        assert not check().passed

    def test_unknown_layer_family(self):
        layer = FiltrationLayer("middle", 0, {}, QPoly.one(), 0)
        with pytest.raises(ValueError):
            layer_character(layer, 2)

    @pytest.mark.parametrize(
        "family,rank", [("truncated", 2), ("m_module_first", 2),
                        ("m_module_last", 2), ("m_module_first", 3),
                        ("m_module_last", 3), ("truncated", 3)],
    )
    def test_layer_dimensions_sum_to_product(self, family, rank):
        # det twists do not move q = 1 dimensions, so the layer dimensions
        # weighted by multiplicity(1) must add up to the tensor product
        if family == "truncated":
            e1, e2 = 1, rank
        elif family == "m_module_first":
            e1 = e2 = 1
        else:
            e1 = e2 = rank
        for m, k in itertools.product(range(4), repeat=2):
            product_dim = (
                qwhittaker_char(m * Weight.fundamental(rank, e1)).q1_dimension()
                * qwhittaker_char(k * Weight.fundamental(rank, e2)).q1_dimension()
            )
            total = sum(
                layer.multiplicity.at_one()
                * layer_character(layer, rank).q1_dimension()
                for layer in extract_filtration(m, k, family, rank=rank)
            )
            assert total == product_dim


class TestFusion:
    def test_dim_atoms(self):
        zero = w2(0, 0)
        assert fusion_dim(0, w2(1, 0), zero, zero) == 3
        assert fusion_dim(0, zero, w2(0, 1), zero) == 6
        assert fusion_dim(0, zero, zero, w2(1, 0)) == 10
        assert fusion_dim(1, zero, zero, zero) == 8

    def test_dim_validation(self):
        zero = w2(0, 0)
        with pytest.raises(ValueError):
            fusion_dim(-1, zero, zero, zero)
        with pytest.raises(ValueError):
            fusion_dim(0, w2(-1, 0), zero, zero)
        with pytest.raises(ValueError):
            fusion_dim(0, Weight(1, (1,)), zero, zero)

    def test_float_rejected(self):
        zero = w2(0, 0)
        with pytest.raises(TypeError):
            fusion_dim(1.5, zero, zero, zero)

    def test_frozen_recurrence_seeds(self):
        zero = w2(0, 0)
        om1, om2 = w2(1, 0), w2(0, 1)
        theta = w2(1, 1)
        # two-layer split of the j = 1 module at lam1 = 0, lam2 = omega_1
        assert fusion_dim(1, zero, om1, zero) == 48
        assert fusion_dim(0, om1, om2, zero) == 18
        assert fusion_dim(0, om2, zero, om1) == 30
        # two-layer split at lam1 = omega_1, lam2 = lam3 = 0
        assert fusion_dim(1, om1, zero, zero) == 24
        assert fusion_dim(0, zero, om2, zero) == 6
        assert fusion_dim(0, om2, om1, zero) == 18
        # three-layer split at j = 2, lam1 = omega_1
        assert fusion_dim(2, om1, zero, zero) == 192
        assert fusion_dim(0, om1, theta, zero) == 108
        assert fusion_dim(1, zero, om2, zero) == 48
        assert fusion_dim(0, zero, 2 * om1, zero) == 36

    def test_recurrence_sweep_clean(self):
        reports = verify_fusion_recurrences(max_pairing=2, max_j=3)
        assert reports
        assert not [r for r in reports if r.status == "fail"]
        skipped = [r for r in reports if r.status == "skip"]
        assert skipped, "hypothesis-gated cases should be visible as skips"
        assert all(r.detail.get("reason") for r in skipped)

    def test_skip_cases_present(self):
        reports = verify_fusion_recurrences(max_pairing=1, max_j=1)
        cases = {
            (rep.params["case"], rep.status)
            for rep in reports
            if "case" in rep.params
        }
        # lam2 = 0 cannot be lowered in either simple direction
        assert ("j1_lambda1_zero", "skip") in cases
        assert ("j1_lambda1_zero_mirror", "skip") in cases
        assert ("j1_lambda1_zero", "pass") in cases

    # sha256 of json.dumps([r.to_json() for r in reports], sort_keys=True) for
    # verify_fusion_recurrences(max_pairing, max_j): every case name, params
    # dict, status and skip reason, in report order
    GRID_SHA256 = {
        (1, 1): "b2e80a5976cb057f92d446bff46958eb4654c8323760a225ffbfe0c271211f6e",
        (2, 3): "9c90e567bfb3e8f485e70a8150e4211a1269e1009daf667267f65087feb7f11f",
        (4, 5): "eb5904623890192cfc6927343695ab0b143a01fa34f6e2f05b3fa45cb87f9fa9",
    }

    @pytest.mark.parametrize("grid", sorted(GRID_SHA256), ids=str)
    def test_recurrence_reports_pinned(self, grid):
        reports = verify_fusion_recurrences(*grid)
        text = json.dumps([r.to_json() for r in reports], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GRID_SHA256[grid]

    def test_recurrence_sweep_beyond_default(self):
        # pairing 5 and j = 6 reach weights and j no other test reaches
        reports = verify_fusion_recurrences(max_pairing=5, max_j=6)
        statuses = [r.status for r in reports]
        assert (statuses.count("pass"), statuses.count("skip")) == (7812, 378)
        assert len(statuses) == 7812 + 378


class TestXiTuple:
    def test_frozen_values(self):
        xi = XiTuple(1, w2(1, 0), w2(0, 1), w2(1, 1))
        assert xi.xi(Root(1, 1)) == Partition((3, 1, 1))
        assert xi.xi(Root(2, 2)) == Partition((3, 2, 1))
        assert xi.xi(Root(1, 2)) == Partition((3, 3, 2, 2, 1))
        assert xi.size_ok()

    def test_adjoint_folds_into_theta_twos(self):
        bare = XiTuple(0, w2(0, 0), w2(0, 0), w2(0, 0))
        fused = XiTuple(2, w2(0, 0), w2(0, 0), w2(0, 0))
        assert bare.xi(Root(1, 2)) == Partition(())
        assert fused.xi(Root(1, 2)) == Partition((2, 2))
        assert fused.xi(Root(1, 1)) == Partition((1, 1))

    def test_size_invariant_sweep(self):
        grid = [w2(a, b) for a in range(3) for b in range(3)]
        for j in range(4):
            for lam1, lam2, lam3 in itertools.product(grid, repeat=3):
                if pairing(lam1 + lam2 + lam3, Root.highest(2)) > 4:
                    continue
                assert XiTuple(j, lam1, lam2, lam3).size_ok()
