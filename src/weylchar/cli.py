"""Command line interface.

Subcommands:
  char       graded Weyl character of a dominant weight
  dim        dimension of the local Weyl module (product formula)
  pops       enumerate partition-overlaid patterns with words
  pieri      one-row Pieri expansion coefficients
  tensor     brute-force product character of two Weyl characters
  decompose  expand a character (JSON, from stdin or a file) in the Weyl basis
  verify     run identity-verification suites

Exit codes: 0 success, 1 verification failure, 2 usage error. All output is
deterministic: repeated runs produce byte-identical results.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

from .charformulas import (
    DecompositionError,
    GradedCharacter,
    char_multiply,
    decompose_weyl_basis,
    pop_char,
    product_onerow,
    qwhittaker_char,
    qwhittaker_partition_char,
)
from .gtpop import basis_word, enumerate_pops, pop_count
from .qalg import QPoly, q_binomial, q_pochhammer
from .weights import Partition, Weight
from . import filtration

_FORMATS = ("plain", "json", "csv")


def _parse_int_tuple(text, what):
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError("%s must be a comma-separated integer list" % what)


def _weight_arg(args):
    return Weight(args.rank, _parse_int_tuple(args.weight, "--weight"))


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _exp_str(key):
    return "(%s)" % ",".join(str(e) for e in key)


def _char_payload(ch, extra=None):
    payload = ch.to_json()
    payload["q1_dimension"] = ch.q1_dimension()
    if extra:
        payload.update(extra)
    return payload


def _char_plain(ch, header_lines):
    lines = list(header_lines)
    lines.append("dimension(q=1): %d" % ch.q1_dimension())
    for key in sorted(ch.terms):
        lines.append("x^%s: %s" % (_exp_str(key), ch.terms[key]))
    return "\n".join(lines) + "\n"


def _char_csv(ch):
    n = ch.n
    header = ["x%d" % (i + 1) for i in range(n + 1)] + ["coefficient"]
    rows = [list(key) + [str(ch.terms[key])] for key in sorted(ch.terms)]
    return _csv_text(header, rows)


def _render_char(ch, args, extra=None, header_lines=()):
    if args.format == "json":
        return _json_text(_char_payload(ch, extra))
    if args.format == "csv":
        return _char_csv(ch)
    return _char_plain(ch, header_lines)


def _cmd_char(args):
    lam = _weight_arg(args)
    ch = qwhittaker_char(lam)
    header = [
        "rank: %d" % lam.n,
        "weight: %s" % ",".join(str(c) for c in lam.coeffs),
    ]
    _emit(
        _render_char(
            ch, args, {"command": "char", "weight": list(lam.coeffs)}, header
        ),
        args.out,
    )
    return 0


def _cmd_dim(args):
    lam = _weight_arg(args)
    dim = pop_count(lam)
    if args.format == "json":
        text = _json_text(
            {
                "command": "dim",
                "rank": lam.n,
                "weight": list(lam.coeffs),
                "dimension": dim,
            }
        )
    elif args.format == "csv":
        text = _csv_text(["dimension"], [[dim]])
    else:
        text = "%d\n" % dim
    _emit(text, args.out)
    return 0


def _cmd_pops(args):
    lam = _weight_arg(args)
    entries = []
    for pop in enumerate_pops(lam, lam.n):
        record = pop.to_json()
        word = basis_word(pop)
        record["word"] = word.to_json()
        entries.append((record, str(word)))
    if args.format == "json":
        text = _json_text(
            {
                "command": "pops",
                "rank": lam.n,
                "weight": list(lam.coeffs),
                "count": len(entries),
                "pops": [record for record, _ in entries],
            }
        )
    elif args.format == "csv":
        rows = [
            [
                json.dumps(record["pattern"]),
                json.dumps(record["overlays"], sort_keys=True),
                record["grade"],
                json.dumps(record["weight"]),
                word_str,
            ]
            for record, word_str in entries
        ]
        text = _csv_text(["pattern", "overlays", "grade", "weight", "word"], rows)
    else:
        lines = ["count: %d" % len(entries)]
        for record, word_str in entries:
            lines.append(
                "pattern=%s overlays=%s grade=%d weight=%s word=%s"
                % (
                    json.dumps(record["pattern"]),
                    json.dumps(record["overlays"], sort_keys=True),
                    record["grade"],
                    json.dumps(record["weight"]),
                    word_str,
                )
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_pieri(args):
    mu = Partition(_parse_int_tuple(args.partition, "--partition"))
    expansion = product_onerow(args.m, mu, args.rank)
    if args.format == "json":
        text = _json_text(
            {
                "command": "pieri",
                "rank": args.rank,
                "partition": list(mu.parts),
                "m": args.m,
                "terms": [
                    {
                        "partition": list(lam.parts),
                        "coefficient": poly.coefficient_list(),
                    }
                    for lam, poly in expansion
                ],
            }
        )
    elif args.format == "csv":
        rows = [
            [json.dumps(list(lam.parts)), str(poly)] for lam, poly in expansion
        ]
        text = _csv_text(["partition", "coefficient"], rows)
    else:
        lines = [
            "%s: %s" % (_exp_str(lam.padded(args.rank + 1)), poly)
            for lam, poly in expansion
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _tensor_factors(variant, m, k, rank):
    if variant == "omega1_omegan":
        return m * Weight.fundamental(rank, 1), k * Weight.fundamental(rank, rank)
    if variant == "omega1_omega1":
        return m * Weight.fundamental(rank, 1), k * Weight.fundamental(rank, 1)
    if variant == "omegan_omegan":
        return m * Weight.fundamental(rank, rank), k * Weight.fundamental(rank, rank)
    raise ValueError("unknown variant %r" % (variant,))


def _cmd_tensor(args):
    a, b = _tensor_factors(args.variant, args.m, args.k, args.rank)
    product = char_multiply(qwhittaker_char(a), qwhittaker_char(b))
    header = [
        "variant: %s" % args.variant,
        "m: %d" % args.m,
        "k: %d" % args.k,
        "rank: %d" % args.rank,
    ]
    extra = {
        "command": "tensor",
        "variant": args.variant,
        "m": args.m,
        "k": args.k,
    }
    _emit(_render_char(product, args, extra, header), args.out)
    return 0


def _read_char_json(path):
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.load(sys.stdin)
    if not isinstance(payload, dict):
        raise ValueError("character JSON must be an object")
    n = payload.get("rank")
    if not _is_json_int(n):
        raise ValueError("character JSON needs an integer 'rank'")
    if not isinstance(payload.get("terms"), list):
        raise ValueError("character JSON needs a list 'terms'")
    terms = []
    for term in payload["terms"]:
        if not isinstance(term, dict):
            raise ValueError("each term must be an object")
        for field in ("exponents", "coefficient"):
            value = term.get(field)
            if not isinstance(value, list) or not all(map(_is_json_int, value)):
                raise ValueError("each term needs an integer list %r" % field)
        coeff = QPoly({i: c for i, c in enumerate(term["coefficient"])})
        terms.append((term["exponents"], coeff))
    # pairs, not a dict: the constructor adds up repeated exponents
    return GradedCharacter(n, terms)


def _is_json_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _cmd_decompose(args):
    ch = _read_char_json(getattr(args, "infile", None))
    components = decompose_weyl_basis(ch)
    if args.format == "json":
        text = _json_text(
            {
                "command": "decompose",
                "rank": ch.n,
                "components": [
                    {
                        "weight": list(w.coeffs),
                        "coefficient": poly.coefficient_list(),
                    }
                    for w, poly in components
                ],
            }
        )
    elif args.format == "csv":
        rows = [
            [json.dumps(list(w.coeffs)), str(poly)] for w, poly in components
        ]
        text = _csv_text(["weight", "coefficient"], rows)
    else:
        lines = [
            "weight %s: %s" % (_exp_str(w.coeffs), poly) for w, poly in components
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_tensor_fundamental(bounds):
    reports = []
    for rank in (2, 3):
        for variant in ("omega1_omegan", "omega1_omega1", "omegan_omegan"):
            for m in range(bounds["max_mk"] + 1):
                for k in range(bounds["max_mk"] + 1):
                    reports.append(
                        filtration.verify_tensor_fundamental(variant, m, k, rank)
                    )
    return reports


def _suite_truncated_product(bounds):
    limit = bounds["max_mk"]
    return [
        filtration.verify_truncated_product(m, k)
        for m in range(limit + 1)
        for k in range(limit + 1)
    ]


def _suite_m_module_product(bounds):
    limit = bounds["max_mk"]
    reports = []
    for rank in (2, 3):
        for variant in ("first", "last"):
            for m in range(limit + 1):
                for k in range(limit + 1):
                    reports.append(
                        filtration.verify_m_module_product(variant, m, k, rank)
                    )
    return reports


def _suite_truncated_dim(bounds):
    reports = []
    for m1 in range(9):
        for m2 in range(9 - m1):
            lam = Weight(2, (m1, m2))
            for j in range(min(m1, m2) + 1):
                reports.append(filtration.truncated_dim_check(lam, j))
    return reports


def _suite_fusion(bounds):
    return filtration.verify_fusion_recurrences(max_pairing=3, max_j=4)


def _mk_report(name, params, ok):
    return filtration.VerificationReport(name, params, "pass" if ok else "fail")


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


def _suite_qbinomial(bounds):
    reports = []
    for j in range(13):
        reports.append(
            _mk_report(
                "qbinomial-identity",
                {"j": j, "form": "two-variable"},
                two_var_product(j) == alternating_expansion(j),
            )
        )
    for j in range(13):
        for big_m in range(j, 21):
            total = QPoly.zero()
            for r in range(j + 1):
                sign = 1 if r % 2 == 0 else -1
                exp = r * (big_m - j + r) - r * (r - 1) // 2
                total = total + q_binomial(j, r) * QPoly({exp: sign})
            expected = q_binomial(big_m, j) * q_pochhammer(j)
            reports.append(
                _mk_report(
                    "qbinomial-identity",
                    {"j": j, "M": big_m, "form": "evaluated"},
                    total == expected,
                )
            )
    return reports


def _small_weights(rank, max_sum):
    """Dominant weights with coefficient sum <= max_sum, lexicographic."""
    return [
        Weight(rank, coeffs)
        for coeffs in itertools.product(range(max_sum + 1), repeat=rank)
        if sum(coeffs) <= max_sum
    ]


def _suite_oracle(bounds):
    reports = []
    for rank in (1, 2, 3):
        for lam in _small_weights(rank, 4):
            a = qwhittaker_char(lam)
            b = pop_char(lam)
            counted = pop_count(lam)
            enumerated = sum(p.at_one() for p in b.terms.values())
            ok = a == b and counted == enumerated
            reports.append(
                _mk_report(
                    "oracle-equivalence",
                    {"rank": rank, "weight": list(lam.coeffs)},
                    ok,
                )
            )
    return reports


def _bounded_mus(max_rows, max_part):
    def build(prefix, rows_left, cap):
        if rows_left == 0:
            yield Partition(prefix)
            return
        for p in range(1, cap + 1):
            yield from build(prefix + (p,), rows_left - 1, p)

    for length in range(max_rows + 1):
        if length == 0:
            yield Partition(())
        else:
            yield from build((), length, max_part)


def _suite_pieri(bounds):
    reports = []
    for rank in (1, 2, 3):
        max_rows = min(3, rank + 1)
        for mu in _bounded_mus(max_rows, 4):
            base = qwhittaker_partition_char(mu, rank)
            for m in range(5):
                brute = char_multiply(
                    base, qwhittaker_partition_char(Partition((m,)), rank)
                )
                total = GradedCharacter.zero(rank)
                for lam, poly in product_onerow(m, mu, rank):
                    total = total + qwhittaker_partition_char(lam, rank) * poly
                reports.append(
                    _mk_report(
                        "pieri",
                        {"rank": rank, "mu": list(mu.parts), "m": m},
                        brute == total,
                    )
                )
    return reports


_SUITES = {
    "tensor-fundamental": (_suite_tensor_fundamental, 5),
    "truncated-product": (_suite_truncated_product, 4),
    "m-module-product": (_suite_m_module_product, 4),
    "truncated-dim": (_suite_truncated_dim, None),
    "fusion-recurrences": (_suite_fusion, None),
    "qbinomial-identity": (_suite_qbinomial, None),
    "oracle-equivalence": (_suite_oracle, None),
    "pieri": (_suite_pieri, None),
}


def _cmd_verify(args):
    if args.list:
        names = sorted(_SUITES) + ["all"]
        _emit("\n".join(names) + "\n", args.out)
        return 0
    if args.suite is None:
        raise ValueError("verify needs --suite NAME or --list")
    if args.suite == "all":
        selected = sorted(_SUITES)
    elif args.suite in _SUITES:
        selected = [args.suite]
        if args.max_mk is not None and _SUITES[args.suite][1] is None:
            raise ValueError(
                "suite %r has no m, k bound; --max-mk does not apply" % (args.suite,)
            )
    else:
        raise ValueError(
            "unknown suite %r; use --list to see the choices" % (args.suite,)
        )
    all_reports = {}
    for name in selected:
        runner, default_mk = _SUITES[name]
        bounds = {"max_mk": args.max_mk if args.max_mk is not None else default_mk}
        all_reports[name] = runner(bounds)
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for reports in all_reports.values():
        for report in reports:
            counts[report.status] += 1
    if args.format == "json":
        text = _json_text(
            {
                "command": "verify",
                "suites": {
                    name: [r.to_json() for r in reports]
                    for name, reports in all_reports.items()
                },
                "summary": counts,
            }
        )
    elif args.format == "csv":
        rows = []
        for name, reports in all_reports.items():
            for r in reports:
                rows.append(
                    [
                        name,
                        r.name,
                        json.dumps(r.params, sort_keys=True),
                        r.status,
                        json.dumps(r.detail, sort_keys=True),
                    ]
                )
        text = _csv_text(["suite", "identity", "params", "status", "detail"], rows)
    else:
        lines = []
        for name, reports in all_reports.items():
            for r in reports:
                lines.append(
                    "%s %s %s"
                    % (
                        r.status.upper().ljust(4),
                        r.name,
                        json.dumps(r.params, sort_keys=True),
                    )
                )
        lines.append(
            "summary: pass=%d fail=%d skip=%d"
            % (counts["pass"], counts["fail"], counts["skip"])
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 1 if counts["fail"] else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="weylchar",
        description="Graded characters of local Weyl modules for sl(n+1)[t]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rank=False, weight=False):
        p.add_argument("--format", choices=_FORMATS, default="plain")
        p.add_argument("--out", default=None, help="write output to a file")
        if rank:
            p.add_argument("--rank", type=int, required=True)
        if weight:
            p.add_argument("--weight", required=True,
                           help="comma-separated fundamental-weight coefficients")

    p = sub.add_parser("char", help="graded Weyl character")
    common(p, rank=True, weight=True)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("dim", help="local Weyl module dimension")
    common(p, rank=True, weight=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("pops", help="enumerate partition-overlaid patterns")
    common(p, rank=True, weight=True)
    p.set_defaults(func=_cmd_pops)

    p = sub.add_parser("pieri", help="one-row Pieri expansion")
    common(p, rank=True)
    p.add_argument("--partition", required=True,
                   help="comma-separated weakly decreasing parts")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_pieri)

    p = sub.add_parser("tensor", help="brute product of two Weyl characters")
    common(p, rank=True)
    p.add_argument("--variant", required=True,
                   choices=("omega1_omegan", "omega1_omega1", "omegan_omegan"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("decompose", help="expand a character in the Weyl basis")
    common(p)
    p.add_argument("--in", dest="infile", default=None,
                   help="character JSON file (default: stdin)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="run identity verification suites")
    common(p)
    p.add_argument("--suite", default=None)
    p.add_argument("--list", action="store_true", help="list available suites")
    p.add_argument("--max-mk", dest="max_mk", type=int, default=None,
                   help="override the m, k sweep bound where applicable")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv):
    """Entry point returning an exit code: 0 ok, 1 failed checks, 2 usage."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, DecompositionError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
