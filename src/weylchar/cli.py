"""Command line interface.

Subcommands:
  char       graded Weyl character of a dominant weight
  dim        dimension of the local Weyl module (product formula)
  pops       enumerate partition-overlaid patterns with words
  pieri      one-row Pieri expansion coefficients
  tensor     brute-force product character of two Weyl characters
  decompose  expand a character (JSON, from stdin or a file) in the Weyl basis
  verify     run identity-verification suites

Every option is declared once, in `_COMMANDS` and `_COMMON`. A plain call,
each option spelled in full and given once with a value that does not start
with "-", is read straight from that table. argparse is imported, and its
one tree of every command built, only for help, usage errors and every other
spelling; it would read a plain call the same way. `verify --list` refuses
--suite and --max-mk, which a listing would ignore.

Exit codes: 0 success, 1 verification failure, 2 usage error. All output is
deterministic: repeated runs produce byte-identical results. JSON output is
the text of json.dumps(payload, sort_keys=True) at an indent of 2 spaces,
ASCII-escaped, and a newline; `_json_text` writes it without the stdlib's
pure-Python encoder for indented output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import types

from .charformulas import (
    TENSOR_VARIANTS,
    DecompositionError,
    GradedCharacter,
    _tensor_product,
    decompose_weyl_basis,
    product_onerow,
    qwhittaker_char,
)
from .gtpop import basis_word, enumerate_pops, pop_count
from .qalg import _trim, _wrap
from .suites import SUITES, run as run_suite
from .weights import Partition, Weight

_FORMATS = ("plain", "json", "csv")
# options whose value is a comma-separated integer list; no other option
# starts with --w or --p, so argparse reads every prefix of one as that option
_LIST_OPTIONS = ("--weight", "--partition")
_INT_ONLY = {int}
_quote = json.encoder.encode_basestring_ascii


def _parse_int_tuple(text, what):
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError("%s must be a comma-separated integer list" % what)


def _weight_arg(args):
    return Weight(args.rank, _parse_int_tuple(args.weight, "--weight"))


def _emit(text, out_path):
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(args, payload, header, rows, lines):
    """Write the one output format that --format selects.

    payload, rows and lines are called without arguments, and only the one
    the format needs: the JSON payload, the CSV rows under `header`, or the
    plain lines. Returns exit code 0.
    """
    if args.format == "json":
        text = _json_text(payload()) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
        text = buf.getvalue()
    else:
        text = "\n".join(lines()) + "\n"
    _emit(text, args.out)
    return 0


def _json_text(obj, lead="\n"):
    """json.dumps(obj, sort_keys=True) at an indent of 2 spaces, for str keys.

    lead is the newline and indent that come before obj's closing bracket.
    The stdlib encodes indented output in pure Python, one call per value.
    Here a list of exact ints is joined at C speed (a bool is no exact int,
    so it still reads true or false), and every other scalar goes through
    json.dumps.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = lead + "  "
        items = [
            _quote(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + lead + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = lead + "  "
        if set(map(type, obj)) == _INT_ONLY:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + lead + "]"
    if type(obj) is _Verbatim:
        return "".join(obj.parts)
    return json.dumps(obj)


class _Verbatim:
    """Finished JSON text for one known place, in pieces that _json_text joins.

    The pieces are joined only when written, so the payload does not hold a
    second copy of the text while _json_text builds the document around it.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


def _exp_str(key):
    return "(%s)" % ",".join(str(e) for e in key)


def _render_character(args, ch, plain_head, extra):
    """Render a character: its terms as JSON, one CSV row or plain line each.

    Every key of an orbit carries the same coefficient, so each distinct
    coefficient is rendered once per call and its text reused by every key
    that carries it. The JSON "terms" array is written here, one level deep
    in the payload, as the bytes _json_text would write for
    GradedCharacter.to_json()["terms"]. ch.terms is built on each read, so
    it is read once here.
    """
    terms = ch.terms
    keys = sorted(terms)

    def texts(render):
        memo = {}
        for key in keys:
            poly = terms[key]
            text = memo.get(poly.coeffs)
            if text is None:
                text = memo[poly.coeffs] = render(poly)
            yield key, text

    def json_terms():
        if not keys:
            return _Verbatim(["[]"])
        # the indents _json_text gives "terms", a key of the payload, and
        # the terms, their fields and the exponents within
        lead = "\n  "
        row = lead + "  "
        field = row + "  "
        entry = field + "  "
        head = "{" + field + '"coefficient": '
        middle = "," + field + '"exponents": [' + entry
        comma = "," + entry
        close = field + "]" + row + "}"
        between = close + "," + row
        # pieces, not one string per term: a coefficient's text is shared by
        # its keys, not copied, until the one join
        parts = ["[" + row]
        for key, prefix in texts(
            lambda poly: head + _json_text(poly.coeffs, field) + middle
        ):
            parts += (prefix, comma.join(map(int.__repr__, key)), between)
        parts[-1] = close + lead + "]"
        return _Verbatim(parts)

    return _render(
        args,
        lambda: {
            "rank": ch.n,
            "terms": json_terms(),
            "q1_dimension": ch.q1_dimension(),
            **extra,
        },
        ["x%d" % (i + 1) for i in range(ch.n + 1)] + ["coefficient"],
        lambda: ([*key, text] for key, text in texts(str)),
        lambda: plain_head
        + ["dimension(q=1): %d" % ch.q1_dimension()]
        + ["x^%s: %s" % (_exp_str(key), text) for key, text in texts(str)],
    )


def _cmd_char(args):
    lam = _weight_arg(args)
    return _render_character(
        args,
        qwhittaker_char(lam),
        ["rank: %d" % lam.n, "weight: %s" % ",".join(str(c) for c in lam.coeffs)],
        {"command": "char", "weight": list(lam.coeffs)},
    )


def _cmd_dim(args):
    lam = _weight_arg(args)
    # refuse, before computing, a dimension too long to print: its digit
    # count is about sum_i m_i log10 C(n+1, i), and a margin of one digit
    # keeps every printable dimension; a Python without the limit (before
    # 3.10.7) prints any length, as does a limit of 0
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = sum(
        m * math.log10(math.comb(lam.n + 1, i)) for i, m in enumerate(lam.coeffs, 1)
    )
    if limit and digits > limit + 1:
        raise ValueError(
            "the dimension has about %.6g digits, over the %d-digit limit for printing"
            % (digits, limit)
        )
    dim = pop_count(lam)
    payload = {
        "command": "dim", "rank": lam.n, "weight": list(lam.coeffs), "dimension": dim
    }
    return _render(
        args, lambda: payload, ["dimension"], lambda: [[dim]], lambda: ["%d" % dim]
    )


def _cmd_pops(args):
    lam = _weight_arg(args)
    entries = [(pop.to_json(), basis_word(pop)) for pop in enumerate_pops(lam, lam.n)]

    def rows():
        for record, word in entries:
            yield (
                json.dumps(record["pattern"]),
                json.dumps(record["overlays"], sort_keys=True),
                record["grade"],
                json.dumps(record["weight"]),
                str(word),
            )

    return _render(
        args,
        lambda: {
            "command": "pops",
            "rank": lam.n,
            "weight": list(lam.coeffs),
            "count": len(entries),
            "pops": [{**record, "word": word.to_json()} for record, word in entries],
        },
        ["pattern", "overlays", "grade", "weight", "word"],
        rows,
        lambda: ["count: %d" % len(entries)]
        + ["pattern=%s overlays=%s grade=%d weight=%s word=%s" % row for row in rows()],
    )


def _cmd_pieri(args):
    mu = Partition(_parse_int_tuple(args.partition, "--partition"))
    expansion = product_onerow(args.m, mu, args.rank)
    return _render(
        args,
        lambda: {
            "command": "pieri",
            "rank": args.rank,
            "partition": list(mu.parts),
            "m": args.m,
            "terms": [
                {"partition": list(lam.parts), "coefficient": poly.coefficient_list()}
                for lam, poly in expansion
            ],
        },
        ["partition", "coefficient"],
        lambda: ([json.dumps(list(lam.parts)), str(poly)] for lam, poly in expansion),
        lambda: [
            "%s: %s" % (_exp_str(lam.padded(args.rank + 1)), poly)
            for lam, poly in expansion
        ],
    )


def _cmd_tensor(args):
    return _render_character(
        args,
        _tensor_product(args.variant, args.m, args.k, args.rank),
        [
            "variant: %s" % args.variant,
            "m: %d" % args.m,
            "k: %d" % args.k,
            "rank: %d" % args.rank,
        ],
        {"command": "tensor", "variant": args.variant, "m": args.m, "k": args.k},
    )


def _read_char_json(path):
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("character JSON is nested too deeply")
    if not isinstance(payload, dict):
        raise ValueError("character JSON must be an object")
    n = payload.get("rank")
    if type(n) is not int:
        raise ValueError("character JSON needs an integer 'rank'")
    if not isinstance(payload.get("terms"), list):
        raise ValueError("character JSON needs a list 'terms'")
    terms = []
    for term in payload["terms"]:
        if not isinstance(term, dict):
            raise ValueError("each term must be an object")
        for field in ("exponents", "coefficient"):
            value = term.get(field)
            # set() for an empty list; a bool or a float adds its own type
            if not isinstance(value, list) or not set(map(type, value)) <= _INT_ONLY:
                raise ValueError("each term needs an integer list %r" % field)
        terms.append((term["exponents"], _wrap(_trim(term["coefficient"]))))
    # pairs, not a dict: the constructor adds up repeated exponents
    return GradedCharacter(n, terms)


def _cmd_decompose(args):
    ch = _read_char_json(args.infile)
    components = decompose_weyl_basis(ch)
    return _render(
        args,
        lambda: {
            "command": "decompose",
            "rank": ch.n,
            "components": [
                {"weight": list(w.coeffs), "coefficient": poly.coefficient_list()}
                for w, poly in components
            ],
        },
        ["weight", "coefficient"],
        lambda: ([json.dumps(list(w.coeffs)), str(poly)] for w, poly in components),
        lambda: [
            "weight %s: %s" % (_exp_str(w.coeffs), poly) for w, poly in components
        ],
    )


def _cmd_verify(args):
    if args.list:
        if args.suite is not None or args.max_mk is not None:
            raise ValueError("--list takes neither --suite nor --max-mk")
        _emit("\n".join(sorted(SUITES) + ["all"]) + "\n", args.out)
        return 0
    if args.suite is None:
        raise ValueError("verify needs --suite NAME or --list")
    if args.suite == "all":
        selected = sorted(SUITES)
    elif args.suite not in SUITES:
        raise ValueError(
            "unknown suite %r; use --list to see the choices" % (args.suite,)
        )
    elif args.max_mk is not None and SUITES[args.suite][1] is None:
        raise ValueError(
            "suite %r has no m, k bound; --max-mk does not apply" % (args.suite,)
        )
    else:
        selected = [args.suite]
    results = {name: run_suite(name, args.max_mk) for name in selected}
    reports = [(name, r) for name in selected for r in results[name]]
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for _, r in reports:
        counts[r.status] += 1
    _render(
        args,
        lambda: {
            "command": "verify",
            "suites": {
                name: [r.to_json() for r in rs] for name, rs in results.items()
            },
            "summary": counts,
        },
        ["suite", "identity", "params", "status", "detail"],
        lambda: (
            [
                name,
                r.name,
                json.dumps(r.params, sort_keys=True),
                r.status,
                json.dumps(r.detail, sort_keys=True),
            ]
            for name, r in reports
        ),
        lambda: [
            "%s %s %s"
            % (r.status.upper().ljust(4), r.name, json.dumps(r.params, sort_keys=True))
            for _, r in reports
        ]
        + ["summary: pass=%(pass)d fail=%(fail)d skip=%(skip)d" % counts],
    )
    return 1 if counts["fail"] else 0


_RANK = ("--rank", {"type": int, "required": True})
_WEIGHT = ("--weight", {
    "required": True, "help": "comma-separated fundamental-weight coefficients"
})
_M = ("--m", {"type": int, "required": True})

# the options of every command, before its own
_COMMON = (
    ("--format", {"choices": _FORMATS, "default": "plain"}),
    ("--out", {"default": None, "help": "write output to a file"}),
)

# name: (help, handler, options after _COMMON), in listing order
_COMMANDS = {
    "char": ("graded Weyl character", _cmd_char, (_RANK, _WEIGHT)),
    "dim": ("local Weyl module dimension", _cmd_dim, (_RANK, _WEIGHT)),
    "pops": ("enumerate partition-overlaid patterns", _cmd_pops, (_RANK, _WEIGHT)),
    "pieri": ("one-row Pieri expansion", _cmd_pieri, (
        _RANK,
        ("--partition", {
            "required": True, "help": "comma-separated weakly decreasing parts"
        }),
        _M,
    )),
    "tensor": ("brute product of two Weyl characters", _cmd_tensor, (
        _RANK,
        ("--variant", {"required": True, "choices": TENSOR_VARIANTS}),
        _M,
        ("--k", {"type": int, "required": True}),
    )),
    "decompose": ("expand a character in the Weyl basis", _cmd_decompose, (
        ("--in", {
            "dest": "infile", "default": None,
            "help": "character JSON file (default: stdin)",
        }),
    )),
    "verify": ("run identity verification suites", _cmd_verify, (
        ("--suite", {"default": None}),
        ("--list", {
            "action": "store_true", "default": False, "help": "list available suites"
        }),
        ("--max-mk", {
            "dest": "max_mk", "type": int, "default": None,
            "help": "override the m, k sweep bound where applicable",
        }),
    )),
}


def _build_parser():
    """The argparse tree: the top parser and a subparser for every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="weylchar",
        description="Graded characters of local Weyl modules for sl(n+1)[t]",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, settings in _COMMON + options:
            p.add_argument(flag, **settings)
        p.set_defaults(func=handler)
    return parser


def _plain_args(argv):
    """The namespace argparse gives a plain call of argv, or None.

    A plain call names a command first. Every other token is the full name
    of one of that command's options, each given at most once, with its
    value in the next token or after "=": a value that is not empty and does
    not start with "-", and none for a flag. Every value passes its type and
    choices, and every required option is given. argparse reads any other
    argv, so it alone writes help and usage errors.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, handler, options = command
    table = _COMMON + options
    settings_of = dict(table)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        settings = settings_of.get(flag)
        if settings is None or flag in given:
            return None
        if settings.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "")
        if not value or value.startswith("-"):
            return None
        if "type" in settings:
            try:
                value = settings["type"](value)
            except ValueError:
                return None
        if "choices" in settings and value not in settings["choices"]:
            return None
        given[flag] = value
    args = types.SimpleNamespace(command=argv[0], func=handler)
    for flag, settings in table:
        if flag in given:
            value = given[flag]
        elif settings.get("required"):
            return None
        else:
            value = settings.get("default")
        setattr(args, settings.get("dest", flag[2:].replace("-", "_")), value)
    return args


def _attach_list_values(argv):
    """argv with each negative list value attached to its option.

    "--weight -1,0" becomes "--weight=-1,0", and so does every prefix of a
    list option that argparse accepts, such as "--weig -1,0". argparse
    reads an argument that starts with "-" and is not one plain number as
    an option, so a list that starts with a negative entry would never
    reach the checks that reject it.
    """
    out = []
    for arg in argv:
        if (
            out
            and len(out[-1]) > 2
            and any(option.startswith(out[-1]) for option in _LIST_OPTIONS)
            and arg[:1] == "-"
            and arg[1:2].isdigit()
        ):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv):
    """Entry point returning an exit code: 0 ok, 1 failed checks, 2 usage."""
    args = _plain_args(argv)
    if args is None:
        # a plain call has no value that starts with "-" to attach
        try:
            args = _build_parser().parse_args(_attach_list_values(argv))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OverflowError, DecompositionError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    except RecursionError:
        sys.stderr.write("error: input is too large for Python's recursion limit\n")
        return 2


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
