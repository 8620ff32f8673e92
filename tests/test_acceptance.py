"""Acceptance gate: twelve exact end-to-end checks, one per test.

Every criterion emits one ACCEPTANCE line (PASS or FAIL) and asserts with
tolerance zero. Timed criteria budget wall-clock seconds via time.monotonic.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from collections import Counter

from weylchar import (
    GradedCharacter,
    QPoly,
    decompose_weyl_basis,
    enumerate_pops,
    irreducible_char,
    pop_count,
    qwhittaker_char,
)
from weylchar import suites
from weylchar.suites import small_weights

from test_gtpop import weyl_dimension


def _verdict(num, label, ok):
    line = "ACCEPTANCE %02d %s: %s" % (num, label, "PASS" if ok else "FAIL")
    print(line)
    assert ok, line


def _statuses(name, max_mk=None):
    """Status counts of a registry suite, e.g. {"pass": 55}."""
    return Counter(report.status for report in suites.run(name, max_mk))


def test_criterion_01_pop_count_formula():
    start = time.monotonic()
    ok = True
    for rank in (1, 2, 3):
        for lam in small_weights(rank, 4):
            enumerated = sum(1 for _ in enumerate_pops(lam, rank))
            formula = pop_count(lam)
            ok = ok and enumerated == formula
    elapsed = time.monotonic() - start
    _verdict(1, "pop-count-formula (<10s)", ok and elapsed < 10.0)


def test_criterion_02_oracle_equivalence():
    start = time.monotonic()
    ok = _statuses("oracle-equivalence") == {"pass": 55}
    elapsed = time.monotonic() - start
    _verdict(2, "character-oracle-equivalence (<30s)", ok and elapsed < 30.0)


def test_criterion_03_specializations():
    ok = True
    for rank in (1, 2, 3):
        for lam in small_weights(rank, 4):
            ch = qwhittaker_char(lam)
            irr = irreducible_char(lam)
            ok = ok and ch.specialize_q0() == irr
            ok = ok and irr.q1_dimension() == weyl_dimension(lam)
            ok = ok and ch.q1_dimension() == pop_count(lam)
    _verdict(3, "q0-and-q1-specializations", ok)


def test_criterion_04_pieri_soundness():
    start = time.monotonic()
    ok = _statuses("pieri") == {"pass": 425}
    elapsed = time.monotonic() - start
    _verdict(4, "pieri-expansion (<60s)", ok and elapsed < 60.0)


def test_criterion_05_tensor_fundamental_closed_forms():
    ok = _statuses("tensor-fundamental", 5) == {"pass": 216}
    _verdict(5, "fundamental-line-tensor-closed-forms", ok)


def test_criterion_06_qbinomial_identity():
    # prod_{t=0}^{j-1} (x - q^t) = sum_i (-1)^i q^{i(i-1)/2} [j i]_q x^{j-i},
    # compared as polynomials in x with Z[q] coefficients for j < 13; the
    # suite's evaluated form of the identity runs alongside
    reports = suites.run("qbinomial-identity")
    two_variable = [r for r in reports if r.params["form"] == "two-variable"]
    ok = len(two_variable) == 13
    ok = ok and Counter(r.status for r in reports) == {"pass": 208}
    _verdict(6, "alternating-qbinomial-identity", ok)


def test_criterion_07_truncated_product_filtration():
    ok = _statuses("truncated-product", 4) == {"pass": 25}
    _verdict(7, "truncated-module-product-filtration", ok)


def test_criterion_08_m_module_product_filtration():
    ok = _statuses("m-module-product", 4) == {"pass": 100}
    _verdict(8, "interpolating-module-product-filtration", ok)


def test_criterion_09_truncated_dimensions():
    ok = _statuses("truncated-dim") == {"pass": 95}
    _verdict(9, "truncated-dimension-formula", ok)


def test_criterion_10_fusion_dimension_recurrences():
    ok = _statuses("fusion-recurrences") == {"pass": 1160, "skip": 120}
    _verdict(10, "fusion-dimension-recurrences", ok)


def test_criterion_11_decompose_round_trip():
    rng = random.Random(20260814)
    ok = True
    pools = {n: small_weights(n, 3) for n in (1, 2, 3)}
    for _ in range(100):
        n = rng.randint(1, 3)
        pool = pools[n]
        count = rng.randint(1, min(5, len(pool)))
        chosen = rng.sample(pool, count)
        combo = {}
        for w in chosen:
            poly = QPoly(
                {d: rng.randint(-5, 5) for d in range(rng.randint(1, 4))}
            )
            if not poly.is_zero():
                combo[w] = poly
        f = GradedCharacter.zero(n)
        for w, poly in combo.items():
            f = f + qwhittaker_char(w) * poly
        ok = ok and dict(decompose_weyl_basis(f)) == combo
    _verdict(11, "weyl-basis-round-trip-100-trials", ok)


def test_criterion_12_cli_determinism_and_full_suite():
    def invoke(*args):
        return subprocess.run(
            [sys.executable, "-m", "weylchar", *args],
            capture_output=True,
        )

    ok = True
    for args in (
        ("char", "--rank", "2", "--weight", "2,1", "--format", "json"),
        ("pops", "--rank", "2", "--weight", "1,1", "--format", "csv"),
        ("pieri", "--partition", "3,1", "--m", "3", "--rank", "2"),
        ("dim", "--rank", "3", "--weight", "2,0,1"),
    ):
        first, second = invoke(*args), invoke(*args)
        ok = ok and first.returncode == 0 and first.stdout == second.stdout

    start = time.monotonic()
    full = invoke("verify", "--suite", "all", "--format", "json")
    elapsed = time.monotonic() - start
    ok = ok and full.returncode == 0 and elapsed < 300.0
    repeat = invoke("verify", "--suite", "all", "--format", "json")
    ok = ok and full.stdout == repeat.stdout
    summary = json.loads(full.stdout)["summary"]
    ok = ok and summary["fail"] == 0 and summary["pass"] > 0
    _verdict(12, "cli-determinism-and-verify-all (<300s)", ok)
