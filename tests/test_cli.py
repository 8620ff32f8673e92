"""End-to-end command line checks via subprocess, pinned byte-for-byte."""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from weylchar import cli


def run_cli(*args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "weylchar", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
    )


def test_import_is_cold():
    # a fresh `import weylchar` computes no q-binomial and leaves the suites
    # unloaded, so timings that start after the import see cold caches
    probe = (
        "import sys, weylchar; "
        "print(weylchar.q_binomial.cache_info().currsize, "
        "'weylchar.suites' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0 False\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every CLI call is a cold interpreter; dataclasses and inspect alone add
    # about 12 ms to its import, and argparse about 3 ms
    probe = (
        "import sys, weylchar.cli; "
        "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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

    @pytest.mark.parametrize(
        "weight,estimate",
        [("1000000,0", "477121"), ("99999999999999999999999,0", "4.77121e+22")],
    )
    def test_unprintable_dimension_refused(self, weight, estimate):
        # 3^m has about m*log10(3) digits, over the default limit of 4300 for
        # int-to-str; the child runs under a 1 GiB address-space cap, so a
        # guard that computes first fails here instead of exhausting memory
        child = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "from weylchar.cli import main; sys.exit(main())"
        )
        out = subprocess.run(
            [sys.executable, "-c", child, "dim", "--rank", "2", "--weight", weight],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == (
            "error: the dimension has about %s digits, over the 4300-digit limit"
            " for printing\n" % estimate
        )

    def test_without_the_print_limit(self, monkeypatch, capsys):
        # Python before 3.10.7 has no int-to-str limit and no way to read it
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert cli.run(["dim", "--rank", "2", "--weight", "1,1"]) == 0
        assert capsys.readouterr().out == "9\n"

    def test_dimension_at_the_print_limit_prints(self):
        # 3^9012 has 4300 digits, the most the default limit prints
        out = run_cli("dim", "--rank", "2", "--weight", "9012,0")
        assert out.returncode == 0
        assert out.stdout == "%d\n" % 3**9012


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

    def test_oversized_weight_is_input_error(self):
        # the interlacing ranges overflow a C index long before any work
        out = run_cli("char", "--rank", "2", "--weight", "99999999999999999999999,0")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr


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

    def test_rank_zero_is_usage_error(self):
        out = run_cli("pieri", "--rank", "0", "--partition", "1", "--m", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: rank must be a positive integer\n"


class TestTensor:
    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_nonpositive_rank_is_usage_error(self, rank):
        out = run_cli(
            "tensor", "--variant", "omega1_omegan", "--m", "1", "--k", "1",
            "--rank", rank,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: rank must be a positive integer\n"


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

    @pytest.mark.parametrize("entry", [True, False, 1.0, 2.5])
    @pytest.mark.parametrize("field", ["exponents", "coefficient"])
    def test_bool_or_float_entry_is_input_error(self, field, entry):
        term = {"exponents": [1, 1], "coefficient": [1, 1]}
        term[field][-1] = entry
        self.assert_input_error({"rank": 1, "terms": [term]})

    @pytest.mark.parametrize(
        "coefficient, plain",
        [([1, 0, 0], "weight (0): 1\n"), ([0, 2, 0], "weight (0): 2q\n"),
         ([0, 0], "\n"), ([], "\n")],
    )
    def test_trailing_and_all_zero_coefficients(self, coefficient, plain):
        # trailing zeros are dropped and a zero coefficient drops its term
        payload = json.dumps(
            {"rank": 1, "terms": [{"exponents": [1, 1], "coefficient": coefficient}]}
        )
        out = run_cli("decompose", stdin=payload)
        assert out.returncode == 0
        assert out.stdout == plain
        if not any(coefficient):
            out = run_cli("decompose", "--format", "json", stdin=payload)
            assert out.stdout == (
                '{\n  "command": "decompose",\n  "components": [],\n  "rank": 1\n}\n'
            )

    def test_oversized_exponent_is_input_error(self):
        big = 10**23
        self.assert_input_error(
            {
                "rank": 1,
                "terms": [
                    {"exponents": [big, 0], "coefficient": [1]},
                    {"exponents": [0, big], "coefficient": [1]},
                ],
            }
        )

    @pytest.mark.parametrize(
        "terms",
        [
            # x1 without x2: a permutation is missing
            [([1, 0], [1])],
            # x1 + q x2: one orbit with unequal coefficients
            [([1, 0], [1]), ([0, 1], [0, 1])],
            # one key of an orbit of 12! keys, refused without listing it
            [(list(range(11, -1, -1)), [1])],
        ],
        ids=["missing-permutation", "unequal-orbit", "rank11"],
    )
    def test_nonsymmetric_input_is_refused(self, terms):
        payload = {
            "rank": len(terms[0][0]) - 1,
            "terms": [{"exponents": e, "coefficient": c} for e, c in terms],
        }
        start = time.perf_counter()
        # a peel of the rank-11 key would not finish: the timeout ends it
        out = run_cli("decompose", stdin=json.dumps(payload), timeout=10)
        # an interpreter start and an import, not a walk of the orbit
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: input is not a symmetric function\n"

    def test_repeated_exponents_add_up(self):
        term = {"exponents": [0, 0], "coefficient": [1]}
        out = run_cli("decompose", stdin=json.dumps({"rank": 1, "terms": [term, term]}))
        assert out.returncode == 0
        assert out.stdout == "weight (0): 2\n"

    def test_deep_nesting_is_input_error(self, tmp_path):
        deep = "[" * 100000
        target = tmp_path / "deep.json"
        target.write_text(deep)
        for out in (
            run_cli("decompose", stdin=deep),
            run_cli("decompose", "--in", str(target)),
        ):
            assert out.returncode == 2
            assert out.stdout == ""
            assert out.stderr == "error: character JSON is nested too deeply\n"


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

    @pytest.mark.parametrize(
        "extra",
        [("--suite", "nope"), ("--suite", "pieri"), ("--max-mk", "3"),
         ("--max-mk=1_0", "--format", "csv")],
        ids=" ".join,
    )
    def test_list_refuses_suite_and_max_mk(self, extra):
        # a listing would ignore them
        out = run_cli("verify", "--list", *extra)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: --list takes neither --suite nor --max-mk\n"

    def test_list_takes_format_and_out(self, tmp_path):
        target = tmp_path / "suites.txt"
        out = run_cli("verify", "--list", "--format", "csv", "--out", str(target))
        assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
        assert target.read_text() == run_cli("verify", "--list").stdout

    def test_unknown_suite(self):
        out = run_cli("verify", "--suite", "nope")
        assert out.returncode == 2

    def test_max_mk_rejected_for_unbounded_suite(self):
        out = run_cli("verify", "--suite", "pieri", "--max-mk", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert "'pieri'" in out.stderr

    @pytest.mark.parametrize("suite", ["truncated-product", "all"])
    def test_negative_max_mk_rejected(self, suite):
        out = run_cli("verify", "--suite", suite, "--max-mk", "-1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")

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

    @pytest.mark.parametrize(
        "args",
        [
            ("char", "--rank", "2", "--weight", "-1,0"),
            ("pieri", "--rank", "2", "--m", "1", "--partition", "-1,2"),
            # prefixes that argparse resolves to the list options
            ("char", "--rank", "2", "--weig", "-1,0"),
            ("dim", "--rank", "2", "--w", "-1,0"),
            ("pieri", "--rank", "2", "--m", "1", "--part", "-1,2"),
        ],
    )
    def test_negative_list_reaches_the_domain_check(self, args):
        # argparse alone reads "-1,0" as an option and never checks the list
        spaced = run_cli(*args)
        joined = run_cli(*args[:-2], "%s=%s" % args[-2:])
        assert spaced.returncode == joined.returncode == 2
        assert spaced.stdout == joined.stdout == ""
        assert spaced.stderr == joined.stderr
        assert joined.stderr.startswith("error: ")
        assert "expected one argument" not in spaced.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("char", "--rank", "1", "--weight", "1100"),
            ("pieri", "--partition", "1500", "--m", "1", "--rank", "1"),
            ("tensor", "--variant", "omega1_omega1", "--m", "1100", "--k", "1",
             "--rank", "1"),
        ],
    )
    def test_recursion_limit_is_input_error(self, args):
        # a Pascal recursion runs past the recursion limit: char and tensor
        # in qalg._packed_binomial, pieri in q_binomial
        out = run_cli(*args)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: input is too large")
        assert out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("char", "--rank", "1", "--weight", "1", "--out", ""),
            ("char", "--rank", "1", "--weight", "1", "--out="),
            ("verify", "--list", "--out", ""),
            ("decompose", "--in", ""),
        ],
    )
    def test_empty_path_is_a_missing_file(self, args):
        # an empty file name is a path that names no file, not stdout or stdin
        out = run_cli(*args, stdin=TENSOR_JSON)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: [Errno 2] No such file or directory: ''\n"

    def test_unknown_subcommand(self):
        out = run_cli("frobnicate")
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "argv", [("frobnicate",), ("char", "--rank", "1", "--weight", "1", "extra")],
        ids=" ".join,
    )
    def test_usage_error_leads_with_the_usage_line(self, argv, capsys):
        # an unknown command and a trailing extra argument: argparse's message
        # after the full usage line of the top parser
        assert cli.run(list(argv)) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            "usage: weylchar [-h] {char,dim,pops,pieri,tensor,decompose,verify} ..."
        )

    def test_help_names_every_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.run(["--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in COMMANDS:
            assert any(line.startswith("    %s " % name) for line in lines), name
            assert cli.run([name, "--help"]) == 0

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


# `weylchar tensor --variant omega1_omega1 --m 1 --k 1 --rank 2 --format json`,
# compacted: the fixed input of the decompose cases below
TENSOR_JSON = (
    '{"command":"tensor","k":1,"m":1,"q1_dimension":9,"rank":2,"terms":['
    '{"coefficient":[1],"exponents":[0,0,2]},{"coefficient":[2],"exponents":[0,1,1]},'
    '{"coefficient":[1],"exponents":[0,2,0]},{"coefficient":[2],"exponents":[1,0,1]},'
    '{"coefficient":[2],"exponents":[1,1,0]},{"coefficient":[1],"exponents":[2,0,0]}],'
    '"variant":"omega1_omega1"}'
)

COMMANDS = ("char", "dim", "pops", "pieri", "tensor", "decompose", "verify")

# usage errors and help of every kind, then one valid call per command
PARSER_ARGVS = [
    (),
    ("-h",),
    *((name, "-h") for name in COMMANDS),
    ("frobnicate",),
    ("char",),
    ("char", "--rank", "2"),
    ("tensor", "--variant", "nope", "--m", "1", "--k", "1", "--rank", "2"),
    ("char", "--rank", "x", "--weight", "1,1"),
    ("char", "--rank", "1", "--weight", "1", "extra"),
    ("char", "--", "--rank", "1"),
    ("--", "char", "--rank", "1", "--weight", "1"),
    ("char", "--rank", "1", "--weight", "1", "--"),
    ("char", "--format", "xml", "--rank", "1", "--weight", "1"),
    ("dim", "--rank", "1", "--weight", "1", "--bogus"),
    ("chr", "--rank", "1", "--weight", "1"),
    ("char", "--rank", "2", "--weight", "1,1"),
    ("dim", "--rank", "2", "--weight", "1,1"),
    ("pops", "--rank", "2", "--weight", "1,0", "--format", "csv"),
    ("pieri", "--partition", "2,1", "--m", "2", "--rank", "2"),
    ("tensor", "--variant", "omega1_omegan", "--m", "1", "--k", "1", "--rank", "2"),
    ("decompose", "--format", "json"),
    ("verify", "--suite", "truncated-dim", "--max-mk", "2", "--format", "csv"),
    # spellings that argparse reads and the plain reader leaves to it
    ("char", "--rank", "2", "--weight="),
    ("char", "--rank", " 2", "--weight", "1,1"),
    ("char", "--rank=-1", "--weight", "1"),
    ("char", "--rank", "-1", "--weight", "1"),
    ("verify", "--suite", "truncated-dim", "--max-mk", "1_0"),
    ("verify", "--list=1"),
    ("verify", "--list", "--out", "-"),
    ("char", "--rank", "1", "--weight", "1", "--form", "json"),
    ("char", "--format", "json", "--rank", "1", "--weight", "1", "--format", "csv"),
]


class TestOneSubparser:
    """The plain reader against argparse's tree of every command."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_same_bytes_as_the_full_tree(self, argv, monkeypatch, capsys, tmp_path):
        # run reads a plain call from the command table and builds argparse's
        # full tree for any other; through argparse alone, each exit code,
        # stdout and stderr byte and each file written is the same
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)  # "--out -" writes a file named "-"

        def call():
            monkeypatch.setattr(sys, "stdin", io.StringIO(TENSOR_JSON))
            code = cli.run(list(argv))
            return code, *capsys.readouterr(), sorted(os.listdir())

        one = call()
        monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
        assert call() == one

    @pytest.mark.parametrize(
        "argv",
        [
            ("char", "--format", "json", "--rank", "2", "--weight=12,12"),
            ("tensor", "--format", "json", "--variant", "omega1_omegan",
             "--m", "2", "--k", "3", "--rank", "3"),
            ("decompose", "--format", "json"),
            ("verify", "--suite", "pieri"),
            ("verify", "--list", "--out", "suites.txt"),
            ("pieri", "--partition=2,1", "--m", "2", "--rank", "2"),
        ],
        ids=" ".join,
    )
    def test_plain_call_read_as_argparse_reads_it(self, argv):
        # the spellings of the bench and the README take the plain reader
        plain = cli._plain_args(list(argv))
        assert plain is not None
        assert vars(plain) == vars(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            # the first id is from when a usage error built only 2 parsers
            pytest.param(("char", "--rank", "2"), 8, id="argv0-2"),
            pytest.param(("--help",), 8, id="argv1-8"),
            pytest.param(("char", "--rank", "2", "--weight", "1,1"), 0, id="argv2-0"),
        ],
    )
    def test_parsers_built(self, argv, parsers):
        # none for a plain call; the top parser and all seven subparsers for
        # a usage error or help
        probe = textwrap.dedent("""
            import argparse, sys
            built = []
            init = argparse.ArgumentParser.__init__
            def counted(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counted
            from weylchar import cli
            cli.run(sys.argv[1:])
            sys.stderr.write("parsers: %d\\n" % len(built))
        """)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        # after the message of a usage error
        assert out.stderr.splitlines()[-1] == "parsers: %d" % parsers

    @pytest.mark.parametrize(
        "argv, plain",
        [(("char", "--rank", "2", "--weight", "1,1"), True), (("char", "-h"), False)],
    )
    def test_plain_call_loads_no_argparse(self, argv, plain):
        # argparse, and the gettext and locale that its first message loads,
        # cost a cold call about 5 ms; help still needs argparse
        probe = textwrap.dedent("""
            import contextlib, io, sys
            from weylchar import cli
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(sys.argv[1:])
            print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
        """)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        if plain:
            assert out.stdout == "[]\n"
        else:
            assert "'argparse'" in out.stdout


GOLDEN_ARGS = {
    "char": ("char", "--rank", "2", "--weight", "2,1"),
    "dim": ("dim", "--rank", "3", "--weight", "2,0,1"),
    "pops": ("pops", "--rank", "2", "--weight", "1,1"),
    "pieri": ("pieri", "--partition", "2,1", "--m", "2", "--rank", "2"),
    "tensor": (
        "tensor", "--variant", "omega1_omegan", "--m", "1", "--k", "1", "--rank", "2",
    ),
    "decompose": ("decompose",),
    "verify": ("verify", "--suite", "truncated-product", "--max-mk", "2"),
}

# sha256 of stdout for every subcommand and format
GOLDEN_SHA256 = {
    ("char", "plain"): "e075b42e43c313d167169287621d7d8ce859ed5755621ee5f311b325af79d9e8",
    ("char", "json"): "432c21c2602d49cb8fe1e9e49ddf8b0fb449ec3aa4fd4eb5905298eff48f5f2d",
    ("char", "csv"): "8f4f287d69fd1ccec0d7566eba93b3f059981e9b2f47fe20318bd81b79debd7d",
    ("dim", "plain"): "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc",
    ("dim", "json"): "446d0b23a4e6252d2cee5e87e9a09725c64daa85d6d615290220a348da7b3da7",
    ("dim", "csv"): "eaaab82afc459169f82f30679ee09a75a541ca62aec0bf8b0c273cc876d62905",
    ("pops", "plain"): "a921e8a9d066440507eb279b75fb100e9f3a401b32dd15b9acabb367ec21e650",
    ("pops", "json"): "9dd49d0d7ad74b3fea4581b37170b47bee3b813c40f703f56de923d98c25c310",
    ("pops", "csv"): "a25d9653e6afd48f91e87da276e543a5e1a0ddfa50c17a7e8076ee3ef9912522",
    ("pieri", "plain"): "b5215080d56e07635b2ec3e42abf09ae34cbf33ce77f107e7a65dc62e67c981a",
    ("pieri", "json"): "fbcd840c5b6e4e0fad6e1411e3a1dea0c35f2a373ec2269c333b7db1c3be6e1a",
    ("pieri", "csv"): "345c6a0536713b8190eb602c2471ad88b96babc6f9f001b7bbacb975c8697ca4",
    ("tensor", "plain"): "f47a95b7d15db0f06a735d9fc370dc474b716086364f6a6edbe35243689f5a2c",
    ("tensor", "json"): "41b7c7dbcaaf1ba9a18ee6381444baf6f7ba499a6bb96db2d01775c80378821a",
    ("tensor", "csv"): "43372662335239b9cf4724330609b15be38af38c073b02074f672ac7f0585a51",
    ("decompose", "plain"): "409598dcfb43beb5c2491563b165d20d2b11cc827d35140c2aacb05c7b50029d",
    ("decompose", "json"): "8bee1b0614c41bd3f539c769bb01c169c8f1fa9d8ee94664fc585917422615c5",
    ("decompose", "csv"): "abc02c8a836da11dc2cc56edafcb27d32105ba469eefbb9c76e5fe09516d80e1",
    ("verify", "plain"): "f8ba595956ef209ccb54a2ab098aa164d37d5199bc564b995314046e913999c3",
    ("verify", "json"): "cecd048f0e3cfa11371758f7136095d1409ea5b248c6d03def470cad0ec3a288",
    ("verify", "csv"): "868b3f8d8e714697cdbdf77b82581f8babf141215f3e20b7ca09cd633aaa56e0",
}


@pytest.mark.parametrize(
    "command, fmt", sorted(GOLDEN_SHA256), ids=["-".join(k) for k in sorted(GOLDEN_SHA256)]
)
def test_stdout_bytes_pinned(command, fmt):
    stdin = TENSOR_JSON.encode() if command == "decompose" else None
    out = subprocess.run(
        [sys.executable, "-m", "weylchar", *GOLDEN_ARGS[command], "--format", fmt],
        capture_output=True,
        input=stdin,
    )
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == GOLDEN_SHA256[command, fmt]


# sha256 of two larger JSON outputs: every suite's reports with their detail
# (the term count of each two-factor check), and a rank-3 tensor product
LARGE_JSON_SHA256 = {
    ("verify", "--suite", "all"): (
        "f71ef34300e35aa6fe1c45c137450acd89467c03ee9050efa446591cafd7c847"
    ),
    ("tensor", "--variant", "omega1_omegan", "--m", "3", "--k", "3", "--rank", "3"): (
        "d1e4e6b9bc907090903a54e3e63049ca7978b71dcaeacd113414ad05500e10df"
    ),
}


# sha256 of every suite's reports as CSV: one row per report with its detail,
# every skip reason included
ALL_CSV_SHA256 = "a0dde44efb5b8b761c710d50ab9c12dcc8ec294b4f3f4cad0b941cc6fb035d9f"


@pytest.mark.parametrize("args", sorted(LARGE_JSON_SHA256), ids=lambda a: a[0])
def test_large_json_bytes_pinned(args):
    out = subprocess.run(
        [sys.executable, "-m", "weylchar", *args, "--format", "json"],
        capture_output=True,
    )
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == LARGE_JSON_SHA256[args]


def test_all_csv_bytes_pinned():
    out = subprocess.run(
        [sys.executable, "-m", "weylchar", "verify", "--suite", "all", "--format", "csv"],
        capture_output=True,
    )
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == ALL_CSV_SHA256


# outputs larger than the golden ones above, one per JSON payload shape
CANONICAL_ARGS = {
    "char": ("char", "--rank", "2", "--weight", "6,6"),
    "char-rank-4": ("char", "--rank", "4", "--weight", "2,1,1,2"),
    "tensor": (
        "tensor", "--variant", "omega1_omegan", "--m", "3", "--k", "3", "--rank", "3",
    ),
    "decompose": ("decompose",),
    "pops": ("pops", "--rank", "3", "--weight", "1,1,1"),
    "pieri": ("pieri", "--partition", "4,3,2,1", "--m", "4", "--rank", "4"),
    "verify": ("verify", "--suite", "all", "--max-mk", "1"),
}


@pytest.mark.parametrize("command", sorted(CANONICAL_ARGS))
def test_json_output_is_canonical(command):
    # the JSON contract: the bytes of json.dumps(payload, indent=2,
    # sort_keys=True) and a newline; decompose reads the tensor output
    stdin = None
    if command == "decompose":
        stdin = run_cli(*CANONICAL_ARGS["tensor"], "--format", "json").stdout
    out = run_cli(*CANONICAL_ARGS[command], "--format", "json", stdin=stdin)
    assert out.returncode == 0
    canonical = json.dumps(json.loads(out.stdout), indent=2, sort_keys=True) + "\n"
    assert out.stdout == canonical
