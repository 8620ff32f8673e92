"""End-to-end command line checks via subprocess, pinned byte-for-byte."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "weylchar", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


class TestDim:
    def test_frozen_value(self):
        out = run_cli("dim", "--rank", "3", "--weight", "2,0,1")
        assert out.returncode == 0
        assert out.stdout == "64\n"

    def test_json(self):
        out = run_cli("dim", "--rank", "2", "--weight", "1,1", "--format", "json")
        blob = json.loads(out.stdout)
        assert blob["dimension"] == 9
        assert blob["rank"] == 2


class TestChar:
    def test_plain_frozen(self):
        out = run_cli("char", "--rank", "1", "--weight", "2")
        assert out.returncode == 0
        assert out.stdout == (
            "rank: 1\n"
            "weight: 2\n"
            "dimension(q=1): 4\n"
            "x^(0,2): 1\n"
            "x^(1,1): 1 + q\n"
            "x^(2,0): 1\n"
        )

    def test_csv(self):
        out = run_cli("char", "--rank", "1", "--weight", "2", "--format", "csv")
        assert out.stdout.splitlines() == [
            "x1,x2,coefficient",
            "0,2,1",
            "1,1,1 + q",
            "2,0,1",
        ]

    def test_json_schema(self):
        out = run_cli("char", "--rank", "2", "--weight", "1,0", "--format", "json")
        blob = json.loads(out.stdout)
        assert blob["rank"] == 2
        assert blob["q1_dimension"] == 3
        assert len(blob["terms"]) == 3
        for term in blob["terms"]:
            assert term["coefficient"] == [1]
            assert sum(term["exponents"]) == 1

    def test_rank_weight_mismatch_is_usage_error(self):
        out = run_cli("char", "--rank", "2", "--weight", "1")
        assert out.returncode == 2
        assert out.stderr

    def test_nondominant_rejected(self):
        out = run_cli("char", "--rank", "2", "--weight", "1,-1")
        assert out.returncode == 2


class TestPops:
    def test_plain_count(self):
        out = run_cli("pops", "--rank", "1", "--weight", "2")
        lines = out.stdout.splitlines()
        assert lines[0] == "count: 4"
        assert len(lines) == 5

    def test_json_matches_count_formula(self):
        out = run_cli("pops", "--rank", "2", "--weight", "1,1", "--format", "json")
        blob = json.loads(out.stdout)
        assert blob["count"] == 9
        assert len(blob["pops"]) == 9
        grades = sorted(entry["grade"] for entry in blob["pops"])
        assert grades[0] == 0


class TestPieri:
    def test_plain_frozen(self):
        out = run_cli("pieri", "--partition", "2,1", "--m", "2", "--rank", "2")
        assert out.stdout == (
            "(4,1,0): 1\n"
            "(3,2,0): 1 - q^2\n"
            "(3,1,1): 1 - q^2\n"
            "(2,2,1): 1 - q - q^2 + q^3\n"
        )

    def test_json(self):
        out = run_cli(
            "pieri", "--partition", "2,1", "--m", "2", "--rank", "2",
            "--format", "json",
        )
        blob = json.loads(out.stdout)
        assert [entry["partition"] for entry in blob["terms"]] == [
            [4, 1], [3, 2], [3, 1, 1], [2, 2, 1]
        ]


class TestDecompose:
    def test_pipe_round_trip(self):
        tensor = run_cli(
            "tensor", "--variant", "omega1_omegan", "--m", "1", "--k", "1",
            "--rank", "2", "--format", "json",
        )
        assert tensor.returncode == 0
        out = run_cli("decompose", stdin=tensor.stdout)
        assert out.returncode == 0
        assert out.stdout == "weight (1,1): 1\nweight (0,0): 1 - q\n"

    def test_json_output(self):
        tensor = run_cli(
            "tensor", "--variant", "omega1_omega1", "--m", "2", "--k", "1",
            "--rank", "2", "--format", "json",
        )
        out = run_cli("decompose", "--format", "json", stdin=tensor.stdout)
        blob = json.loads(out.stdout)
        weights = [tuple(entry["weight"]) for entry in blob["components"]]
        assert (3, 0) in weights and (1, 1) in weights

    def test_bad_payload(self):
        out = run_cli("decompose", stdin="not json")
        assert out.returncode == 2

    def assert_input_error(self, payload):
        out = run_cli("decompose", stdin=json.dumps(payload))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr

    def test_top_level_list_is_input_error(self):
        self.assert_input_error([1, 2])

    def test_scalar_coefficient_is_input_error(self):
        self.assert_input_error(
            {"rank": 2, "terms": [{"exponents": [0, 0, 0], "coefficient": 5}]}
        )

    def test_float_coefficient_is_input_error(self):
        self.assert_input_error(
            {"rank": 2, "terms": [{"exponents": [0, 0, 0], "coefficient": [1.5]}]}
        )

    def test_repeated_exponents_add_up(self):
        term = {"exponents": [0, 0], "coefficient": [1]}
        out = run_cli("decompose", stdin=json.dumps({"rank": 1, "terms": [term, term]}))
        assert out.returncode == 0
        assert out.stdout == "weight (0): 2\n"


class TestVerify:
    def test_list(self):
        out = run_cli("verify", "--list")
        assert out.stdout.splitlines() == [
            "fusion-recurrences",
            "m-module-product",
            "oracle-equivalence",
            "pieri",
            "qbinomial-identity",
            "tensor-fundamental",
            "truncated-dim",
            "truncated-product",
            "all",
        ]

    def test_suite_passes(self):
        out = run_cli("verify", "--suite", "truncated-dim")
        assert out.returncode == 0
        assert out.stdout.splitlines()[-1] == "summary: pass=95 fail=0 skip=0"

    def test_suite_json(self):
        out = run_cli(
            "verify", "--suite", "truncated-product", "--max-mk", "2",
            "--format", "json",
        )
        blob = json.loads(out.stdout)
        assert blob["summary"] == {"pass": 9, "fail": 0, "skip": 0}
        reports = blob["suites"]["truncated-product"]
        assert len(reports) == 9
        assert all(r["status"] == "pass" for r in reports)

    def test_unknown_suite(self):
        out = run_cli("verify", "--suite", "nope")
        assert out.returncode == 2

    def test_max_mk_rejected_for_unbounded_suite(self):
        out = run_cli("verify", "--suite", "pieri", "--max-mk", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert "'pieri'" in out.stderr

    def test_max_mk_applies_to_bounded_suites_of_all(self):
        out = run_cli("verify", "--suite", "all", "--max-mk", "1", "--format", "json")
        assert out.returncode == 0
        suites = json.loads(out.stdout)["suites"]
        sizes = {name: len(reports) for name, reports in suites.items()}
        assert sizes["tensor-fundamental"] == 24
        assert sizes["truncated-product"] == 4
        assert sizes["m-module-product"] == 16
        assert sizes["pieri"] == 425


class TestPlumbing:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "char.json"
        out = run_cli(
            "char", "--rank", "1", "--weight", "1", "--format", "json",
            "--out", str(target),
        )
        assert out.returncode == 0
        assert out.stdout == ""
        blob = json.loads(target.read_text())
        assert blob["q1_dimension"] == 2

    def test_unknown_subcommand(self):
        out = run_cli("frobnicate")
        assert out.returncode == 2

    def test_no_args_shows_usage(self):
        out = run_cli()
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("char", "--rank", "2", "--weight", "2,1", "--format", "json"),
            ("pops", "--rank", "2", "--weight", "1,1", "--format", "csv"),
            ("pieri", "--partition", "3,1", "--m", "3", "--rank", "2"),
            ("verify", "--suite", "truncated-dim", "--format", "json"),
        ],
    )
    def test_deterministic_output(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
