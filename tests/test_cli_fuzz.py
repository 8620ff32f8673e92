"""Property tests of the CLI exit-code contract, in-process through `cli.run`.

Whatever the arguments or the `decompose` input, `run` returns 0, 1 or 2 and
never lets an exception escape (which the console script would print as a
traceback). Ranks, weights and m, k stay small: there is no size guard yet,
so a large input would only run long.

The JSON emitter is checked against the stdlib encoder it stands in for, and
the character renderer against the per-term rendering it replaced.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from weylchar import (
    GradedCharacter,
    QPoly,
    Weight,
    cli,
    decompose_weyl_basis,
    qwhittaker_char,
)
from weylchar.charformulas import TENSOR_VARIANTS

JUNK = st.sampled_from(["", "x", "1,,2", "1.5", " 2", "-"])


def _csv(values):
    return ",".join(str(v) for v in values)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str) | JUNK


RANK = _ints(-1, 3)
# coefficient sums stay <= 3, so no character, pattern set or product is large
WEIGHT = st.lists(st.integers(-1, 2), max_size=4).filter(lambda xs: sum(xs) <= 3)
PARTITION = st.lists(st.integers(-1, 3), max_size=4)
COMMON = {
    "--format": st.sampled_from(["plain", "json", "csv", "xml"]),
    # a directory: opening it for writing fails, so nothing is written
    "--out": st.just("."),
}
WEIGHTED = {**COMMON, "--rank": RANK, "--weight": WEIGHT.map(_csv) | JUNK}
OPTIONS = {
    "char": WEIGHTED,
    "dim": WEIGHTED,
    "pops": WEIGHTED,
    "pieri": {
        **COMMON,
        "--rank": RANK,
        "--partition": PARTITION.map(_csv) | JUNK,
        "--m": _ints(-1, 3),
    },
    "tensor": {
        **COMMON,
        "--rank": RANK,
        "--variant": st.sampled_from(TENSOR_VARIANTS + ("omega2_omega2",)),
        "--m": _ints(-1, 3),
        "--k": _ints(-1, 3),
    },
    "decompose": {**COMMON, "--in": st.sampled_from([".", "missing.json"])},
    "verify": {
        **COMMON,
        # `all`, `pieri` and `oracle-equivalence` take seconds per run and are
        # left to the acceptance gate
        "--suite": st.sampled_from(
            [
                "truncated-product",
                "m-module-product",
                "tensor-fundamental",
                "truncated-dim",
                "fusion-recurrences",
                "qbinomial-identity",
                "no-such-suite",
            ]
        ),
        "--list": st.none(),
        "--max-mk": _ints(-1, 2),
    },
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["frobnicate"]))
    argv = [command]
    for flag, values in OPTIONS.get(command, {}).items():
        if draw(st.integers(0, 4)) == 0:  # leave the flag out now and then
            continue
        value = draw(values)
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append("%s=%s" % (flag, value))
        else:
            argv += [flag, value]
    return argv + draw(st.sampled_from([[], [], [], ["--bogus"], ["-h"], ["extra"]]))


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch("sys.stdin", io.StringIO(stdin)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_arguments_keep_the_exit_code_contract(argv):
    _run(argv)


@st.composite
def spelled_argvs(draw):
    """A call of one command, its options in any order and in any spelling.

    Each option is left out, given once or given twice, and each time is
    spelled in full or as a prefix, with its value after "=" or in the next
    argument.
    """
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values in draw(st.permutations(sorted(OPTIONS[command].items()))):
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            spelling = flag
            if draw(st.integers(0, 3)) == 0:
                spelling = flag[: draw(st.integers(3, len(flag)))]
            value = draw(values)
            if value is None:
                argv.append(spelling)
            elif draw(st.booleans()):
                argv.append("%s=%s" % (spelling, value))
            else:
                argv += [spelling, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(spelled_argvs() | argvs())
@example(["char", "--rank", "2", "--weight", "1,1"])
@example(["verify", "--list", "--max-mk=1_0", "--format", "csv"])
def test_plain_reader_agrees_with_argparse(argv):
    # a call that the plain reader takes is read as argparse reads it
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            parsed = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    plain = cli._plain_args(argv)
    assert plain is None or vars(plain) == parsed


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
KEYS = st.sampled_from(["rank", "terms", "exponents", "coefficient"])
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)
# near-valid characters: small ranks, exponents and coefficients, so that most
# payloads reach the symmetry check or the peel. A second band reaches beyond
# +-2**64, so the peel packs slots wider than any machine integer
WIDE = st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))
TERM = st.fixed_dictionaries(
    {
        "exponents": st.lists(st.integers(-1, 3), max_size=4),
        "coefficient": st.lists(st.integers(-2, 2), max_size=3)
        | st.lists(st.integers(-2, 2) | WIDE, max_size=3),
    }
)
def _orbit_sum_json(key, coefficient):
    """Character JSON of coefficient times the orbit sum of a dominant key."""
    return {
        "rank": len(key) - 1,
        "terms": [
            {"exponents": list(perm), "coefficient": coefficient}
            for perm in sorted(set(itertools.permutations(key)))
        ],
    }


CHARACTERS = st.fixed_dictionaries(
    {"rank": st.integers(-1, 3), "terms": st.lists(TERM, max_size=4)}
)


@settings(max_examples=150, deadline=None)
@given(
    (JSON_VALUES | CHARACTERS).map(json.dumps) | st.text(max_size=8),
    st.sampled_from(["plain", "json", "csv"]),
)
@example("[" * 100000, "plain")
@example('{"rank": 1, "terms": ' + "[" * 100000, "plain")
@example(json.dumps(_orbit_sum_json((40, 0), [1])), "plain")
@example(json.dumps(_orbit_sum_json((40, 0), [2**70, 0, -(2**70)])), "json")
@example(json.dumps(_orbit_sum_json((8, 4, 0), [-(2**80), 3])), "csv")
def test_any_decompose_input_keeps_the_exit_code_contract(payload, fmt):
    code, out, err = _run(["decompose", "--format", fmt], stdin=payload)
    if code == 2:
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "key,coefficient",
    [((40, 0), [1]), ((40, 0), [2**70, 0, -(2**70)]), ((8, 4, 0), [-(2**80), 3])],
    ids=["m40", "m40-wide", "m840-wide"],
)
def test_wide_decompose_prints_the_library_peel(key, coefficient):
    # coefficients beyond 2**64, and m_(40) whose peel widens its remainder
    payload = _orbit_sum_json(key, coefficient)
    code, out, err = _run(["decompose", "--format", "json"], stdin=json.dumps(payload))
    assert (code, err) == (0, "")
    ch = GradedCharacter(
        payload["rank"],
        [
            (term["exponents"], QPoly(enumerate(term["coefficient"])))
            for term in payload["terms"]
        ],
    )
    assert json.loads(out)["components"] == [
        {"weight": list(w.coeffs), "coefficient": p.coefficient_list()}
        for w, p in decompose_weyl_basis(ch)
    ]


# keys and strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2603\U0001d11e') | st.characters()
)
# above 2**64 as well as near zero
INTS = st.integers() | st.integers(2**64, 2**300) | st.integers(-(2**300), -(2**64))
NATIVE = st.recursive(
    st.none()
    | st.booleans()
    | INTS
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
    # int lists take the joined path unless a bool or a float is among them
    | st.lists(INTS)
    | st.lists(INTS | st.booleans() | st.floats(), min_size=1),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(NATIVE)
@example(((1, 2), [True, 1], {"": [[], {}, ()]}))
def test_json_text_matches_the_stdlib_encoder(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def characters(draw):
    """A character from the branching rule, or orbit sums through the constructor.

    The orbit sums put a few coefficients, negative and beyond 2**64 among
    them, on the orbits of unrelated dominant keys, so that equal
    coefficients sit on keys of different orbits.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        coeffs = draw(
            st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(
                lambda c: sum(c) <= max(2, 6 - n)
            )
        )
        return qwhittaker_char(Weight(n, coeffs))
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(INTS, min_size=1, max_size=4), min_size=1, max_size=3))
    keys = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * (n + 1)).map(
                lambda key: tuple(sorted(key, reverse=True))
            ),
            st.integers(0, len(pool) - 1),
            max_size=12,
        )
    )
    # a new QPoly per key: equal coefficients need not be one object
    return GradedCharacter(
        n,
        {
            perm: QPoly(enumerate(pool[i]))
            for key, i in keys.items()
            for perm in set(itertools.permutations(key))
        },
    )


EXTRAS = st.sampled_from(
    [
        {"command": "char", "weight": [2, 1]},
        {"command": "tensor", "variant": "omega1_omegan", "m": 1, "k": 1},
    ]
)


def _rendered(ch, fmt, head, extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli._render_character(argparse.Namespace(format=fmt, out=None), ch, head, extra)
    assert code == 0
    return out.getvalue()


@settings(max_examples=120, deadline=None)
@given(characters(), EXTRAS)
def test_character_render_matches_the_per_term_reference(ch, extra):
    # the reference renders every term on its own, as the CLI once did
    head = ["rank: %d" % ch.n]
    # each read of ch.terms builds it anew, so it is read once
    terms = ch.terms
    keys = sorted(terms)
    q1 = sum(p.at_one() for p in terms.values())
    payload = {**ch.to_json(), "q1_dimension": q1, **extra}
    assert _rendered(ch, "json", head, extra) == json.dumps(
        payload, indent=2, sort_keys=True
    ) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x%d" % (i + 1) for i in range(ch.n + 1)] + ["coefficient"])
    writer.writerows([*key, str(terms[key])] for key in keys)
    assert _rendered(ch, "csv", head, extra) == buf.getvalue()
    lines = head + ["dimension(q=1): %d" % q1] + [
        "x^(%s): %s" % (",".join(str(e) for e in key), terms[key]) for key in keys
    ]
    assert _rendered(ch, "plain", head, extra) == "\n".join(lines) + "\n"
