"""weylchar benchmark driver: cold CLI and library operations, checked exactly.

Usage, from the root of a checkout:

    python3 bench/run.py --workload char-ladder --seed 1 --seconds 30 --trace 0

Every operation runs in its own fresh interpreter (``bench/worker.py``), one
at a time, so each pays the cold-cache cost a CLI user pays. The driver
repeats full passes over the workload's operations until ``--seconds`` have
gone by, checks every output against the digests recorded from the seed
commit in ``bench/expected.json`` and against an exact invariant computed
here, independently of the package, and prints one JSON result line last.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, from traced passes that
alternate with untraced ones. ``--record`` rewrites ``bench/expected.json``
from the current checkout; run it only on the commit the digests pin.
See ``bench/README.md`` for the workloads, the metrics and the layer map.
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
EXPECTED = BENCH_DIR / "expected.json"

# The host's speed drifts: the same operation takes up to 1.7 times longer
# when other tenants load the machine, in stretches of seconds to minutes.
# Each worker therefore times a fixed probe loop before, during and after its
# operation (see worker.py), and the driver scales every time the worker
# measured by CALIBRATION_REF_S over the probe time around it. Figures read as
# seconds on a machine where the probe takes CALIBRATION_REF_S, about the
# uncontended speed of the shared 2-core virtual machine it was tuned on.
CALIBRATION_REF_S = 0.0006
# Probes that ran longest were most likely interrupted; this share is dropped.
PROBE_TRIM = 0.1

# A run must end within 180 s: one operation may take at most OP_TIMEOUT_S,
# and no pass starts once the run has used PASS_START_LIMIT_S.
OP_TIMEOUT_S = 60
PASS_START_LIMIT_S = 110

CHAR_LADDER = [
    (10, 10), (12, 12), (16, 4),
    (3, 3, 3), (4, 2, 4), (5, 0, 5),
    (2, 1, 1, 2), (1, 2, 1, 0),
    (1, 0, 1, 0, 1),
]
LIB_PAIRS = [
    ((4, 4), (4, 4)),
    ((3, 3), (3, 3)),
    ((2, 2, 2), (1, 1, 1)),
    ((2, 1, 0), (0, 1, 2)),
]
# (variant, m, k, rank) for `weylchar tensor | weylchar decompose`.
CLI_PAIRS = [("omega1_omegan", 6, 6, 3), ("omega1_omega1", 8, 8, 2)]
DUAL_VARIANT = {
    "omega1_omegan": "omega1_omegan",
    "omega1_omega1": "omegan_omegan",
    "omegan_omegan": "omega1_omega1",
}
SUITES = [
    "fusion-recurrences", "m-module-product", "oracle-equivalence", "pieri",
    "qbinomial-identity", "tensor-fundamental", "truncated-dim",
    "truncated-product",
]


class SetupError(Exception):
    """The program under test cannot be started from this checkout."""


# ---------------------------------------------------------------------------
# exact invariants, computed without the package


def pop_count(weight):
    """Dimension of the local Weyl module: prod_i C(n+1, i)^{m_i}."""
    n = len(weight)
    return math.prod(math.comb(n + 1, i) ** m for i, m in enumerate(weight, 1))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_binomial(n, r):
    """[n r]_q as a coefficient list, by the Pascal rule."""
    if r == 0 or r == n:
        return [1]
    left, right = q_binomial(n - 1, r - 1), [0] * r + q_binomial(n - 1, r)
    return [x + y for x, y in zip(left + [0] * (len(right) - len(left)), right)]


def q_pochhammer(i):
    out = [1]
    for j in range(1, i + 1):
        out = poly_mul(out, [1] + [0] * (j - 1) + [-1])
    return out


def fundamental_factors(variant, m, k, rank):
    first = [0] * rank
    second = [0] * rank
    first[0 if variant.startswith("omega1") else rank - 1] = m
    second[rank - 1 if variant.endswith("omegan") else 0] = k
    return tuple(first), tuple(second)


def closed_form_components(variant, m, k, rank):
    """{weight: [m i]_q [k i]_q (q;q)_i} for a fundamental-line product."""
    out = {}
    for i in range(min(m, k) + 1):
        c = [0] * rank
        if variant == "omega1_omegan":
            c[0] += m - i
            c[rank - 1] += k - i
        elif variant == "omega1_omega1":
            c[0] = m + k - 2 * i
            c[1] += i
        else:
            c[rank - 1] = m + k - 2 * i
            c[rank - 2] += i
        out[tuple(c)] = poly_mul(poly_mul(q_binomial(m, i), q_binomial(k, i)), q_pochhammer(i))
    return out


def dimension_balance(components, a, b):
    """None when sum coeff(q=1) * dim(mu) equals dim(a) * dim(b)."""
    total = sum(sum(coeff) * pop_count(weight) for weight, coeff in components)
    if total != pop_count(a) * pop_count(b):
        return "sum of component dimensions %d != %d * %d" % (
            total, pop_count(a), pop_count(b))
    return None


def check_char(weight):
    def check(out):
        payload = json.loads(out)
        expected = pop_count(weight)
        q1 = sum(sum(term["coefficient"]) for term in payload["terms"])
        if payload["q1_dimension"] != expected or q1 != expected:
            return "q=1 dimension %s / %d != pop_count %d" % (
                payload["q1_dimension"], q1, expected)
        return None
    return check


def check_lib_tensor(a, b):
    def check(out):
        return dimension_balance(json.loads(out)["components"], a, b)
    return check


def check_cli_tensor(a, b):
    def check(out):
        q1 = json.loads(out)["q1_dimension"]
        if q1 != pop_count(a) * pop_count(b):
            return "product dimension %d != %d * %d" % (q1, pop_count(a), pop_count(b))
        return None
    return check


def check_cli_decompose(variant, m, k, rank):
    a, b = fundamental_factors(variant, m, k, rank)
    closed = closed_form_components(variant, m, k, rank)

    def check(out):
        components = [(c["weight"], c["coefficient"]) for c in json.loads(out)["components"]]
        problem = dimension_balance(components, a, b)
        if problem:
            return problem
        if {tuple(w): c for w, c in components} != closed:
            return "components differ from [m i]_q [k i]_q (q;q)_i"
        return None
    return check


def parse_summary(out):
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("summary: "):
        raise ValueError("no summary line")
    return {k: int(v) for k, v in (piece.split("=") for piece in last.split()[1:])}


def check_verify(name, expected):
    def check(out):
        counts = parse_summary(out)
        seed_counts = expected.get("verify_counts", {}).get(name)
        if counts["fail"]:
            return "suite %s reports fail=%d" % (name, counts["fail"])
        if counts != seed_counts:
            return "suite %s counts %s != seed %s" % (name, counts, seed_counts)
        return None
    return check


# ---------------------------------------------------------------------------
# workloads: each is a list of units, a unit a list of operations run in
# order. An operation with "pipe" reads the previous operation's output.


def cli_op(key, argv, check, pipe=False):
    return {"key": key, "job": {"kind": "cli", "argv": argv}, "check": check, "pipe": pipe}


def char_op(weight):
    w = ",".join(str(c) for c in weight)
    argv = ["char", "--format", "json", "--rank", str(len(weight)), "--weight=" + w]
    return cli_op("char %s" % w, argv, check_char(weight))


def lib_tensor_op(a, b):
    return {
        "key": "lib %s x %s" % (a, b),
        "job": {"kind": "lib_tensor", "a": list(a), "b": list(b)},
        "check": check_lib_tensor(a, b),
        "pipe": False,
    }


def cli_tensor_unit(variant, m, k, rank):
    a, b = fundamental_factors(variant, m, k, rank)
    spec = "%s m=%d k=%d rank=%d" % (variant, m, k, rank)
    argv = ["tensor", "--format", "json", "--variant", variant,
            "--m", str(m), "--k", str(k), "--rank", str(rank)]
    return [
        cli_op("tensor " + spec, argv, check_cli_tensor(a, b)),
        cli_op("decompose " + spec, ["decompose", "--format", "json"],
               check_cli_decompose(variant, m, k, rank), pipe=True),
    ]


def verify_op(name, expected):
    return cli_op("verify " + name, ["verify", "--suite", name], check_verify(name, expected))


def dual(weight):
    return tuple(reversed(weight))


def build_workload(name, rng, expected):
    """The workload's units; rng picks each rung's weight or its dual and
    each pair's factor order, choices that cost the same within noise."""
    if name == "char-ladder":
        return [[char_op(dual(w) if rng.random() < 0.5 else w)] for w in CHAR_LADDER]
    if name == "tensor-decompose":
        units = []
        for a, b in LIB_PAIRS:
            if rng.random() < 0.5:
                a, b = dual(a), dual(b)
            if rng.random() < 0.5:
                a, b = b, a
            units.append([lib_tensor_op(a, b)])
        for variant, m, k, rank in CLI_PAIRS:
            if rng.random() < 0.5:
                variant = DUAL_VARIANT[variant]
            if rng.random() < 0.5:
                m, k = k, m
            units.append(cli_tensor_unit(variant, m, k, rank))
        return units
    if name == "verify-suites":
        return [[verify_op(s, expected)] for s in SUITES]
    raise ValueError("unknown workload %r" % (name,))


def all_variants(expected):
    """Every operation any seed can produce, for --record."""
    units = [[char_op(w)] for base in CHAR_LADDER for w in sorted({base, dual(base)})]
    for a, b in LIB_PAIRS:
        for x, y in sorted({(a, b), (b, a), (dual(a), dual(b)), (dual(b), dual(a))}):
            units.append([lib_tensor_op(x, y)])
    for variant, m, k, rank in CLI_PAIRS:
        for v in sorted({variant, DUAL_VARIANT[variant]}):
            for mm, kk in sorted({(m, k), (k, m)}):
                units.append(cli_tensor_unit(v, mm, kk, rank))
    units += [[verify_op(s, expected)] for s in SUITES]
    return units


# ---------------------------------------------------------------------------
# running operations


def worker_env():
    # No bytecode cache: every worker compiles the package from source, the
    # same in every environment, and nothing is written into the checkout.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(job, env):
    """Run one job in a fresh interpreter; returns (setup_s, result dict)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], cwd=str(ROOT), env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not ready.startswith("ready "):
            _, err = proc.communicate(timeout=OP_TIMEOUT_S)
            raise SetupError("worker could not import weylchar:\n" + err)
        package = Path(ready[len("ready "):].strip()).resolve()
        if SRC.resolve() not in package.parents:
            raise SetupError("weylchar was imported from %s, not from %s" % (package, SRC))
        try:
            out, err = proc.communicate(json.dumps(job) + "\n", timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return setup_s, {"error": "timeout after %d s" % OP_TIMEOUT_S}
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            return setup_s, {"error": "worker exited %s: %s" % (proc.returncode, err[-2000:])}
        return setup_s, json.loads(lines[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def speed_factors(probes):
    """(setup factor, operation factor) from a worker's probe times.

    Set-up is scaled by the probes just after it. An operation with at least
    three probes during it is scaled by their harmonic mean, which weights each
    probe interval by the speed it ran at; a shorter one by the probes around it.
    """
    before, during, after = probes
    setup = CALIBRATION_REF_S / statistics.median(before)
    if len(during) < 3:
        return setup, CALIBRATION_REF_S / statistics.median(before + after)
    kept = sorted(during)[:max(1, round(len(during) * (1 - PROBE_TRIM)))]
    return setup, CALIBRATION_REF_S * statistics.mean(1 / p for p in kept)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_op(op, trace, env, expected, piped, check_digest=True):
    """Run and check one operation; returns a record of what it measured."""
    job = dict(op["job"], trace=trace)
    if op["pipe"]:
        if piped is None:
            return {"key": op["key"], "failure": "input step failed", "out": None}
        job["stdin"] = piped
    setup_s, result = run_worker(job, env)
    rec = {
        "key": op["key"], "out": result.get("out"), "cli": job["kind"] == "cli",
        "rss_kb": result.get("rss_kb"), "trace": result.get("trace"), "failure": None,
    }
    if result.get("probes"):
        setup_factor, rec["factor"] = speed_factors(result["probes"])
        rec["setup_s"] = setup_s * setup_factor
        rec["op_s"] = result["op_s"] * rec["factor"]
        rec["raw_op_s"] = result["op_s"]
    if "error" in result:
        rec["failure"] = result["error"]
    elif result["exit"] != 0:
        rec["failure"] = "exit code %s: %s" % (result["exit"], result["err"][-500:])
    elif check_digest and expected["digests"].get(op["key"]) != digest(result["out"]):
        rec["failure"] = "output differs from the recorded digest"
    else:
        try:
            rec["failure"] = op["check"](result["out"])
        except (ValueError, KeyError, TypeError) as exc:
            rec["failure"] = "malformed output: %r" % (exc,)
    return rec


def run_pass(units, rng, trace, env, expected):
    order = list(units)
    rng.shuffle(order)
    records = []
    for unit in order:
        piped = None
        for op in unit:
            rec = run_op(op, trace, env, expected, piped)
            piped = None if rec["failure"] else rec["out"]
            out = rec.pop("out")
            rec["out_bytes"] = len(out.encode("utf-8")) if out is not None else 0
            records.append(rec)
            if rec["failure"]:
                sys.stderr.write("FAIL %s: %s\n" % (rec["key"], rec["failure"]))
    return records


# ---------------------------------------------------------------------------
# metrics


def per_op_medians(passes, field):
    values = {}
    for records in passes:
        for rec in records:
            if rec.get(field) is not None:
                values.setdefault(rec["key"], []).append(rec[field])
    return {key: statistics.median(v) for key, v in values.items()}


def end_to_end(passes, setups, attempted, failed):
    op_s = per_op_medians(passes, "op_s")
    rss = per_op_medians(passes, "rss_kb")
    if not op_s:
        raise SetupError("no operation completed")
    for key, value in sorted(op_s.items()):
        sys.stderr.write("  %-50s %8.4f s  %7.1f MB\n" % (key, value, rss[key] / 1024))
    return with_units({
        "wall_s": sum(op_s.values()),
        "largest_op_s": max(op_s.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss.values()) / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }, "end_to_end")


LAYERS = ("qalg", "gtpop", "charformulas", "filtration")


def layer_pass(records):
    """Per-layer figures of one traced pass."""
    spans, counts = {}, {}
    qbin, char_cache = [0, 0], [0, 0]
    char_cache_seen = False
    cli_overhead = wall = 0.0
    output_bytes = 0
    for rec in records:
        trace = rec.get("trace")
        if trace is None:
            continue
        factor = rec["factor"]
        wall += rec["op_s"]
        for name, (calls, incl, self_s) in trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl * factor
            acc[2] += self_s * factor
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        qbin = [x + y for x, y in zip(qbin, trace["qbinomial"])]
        if trace["char_cache"] is not None:
            char_cache_seen = True
            char_cache = [x + y for x, y in zip(char_cache, trace["char_cache"])]
        if rec["cli"]:
            cli_overhead += rec["op_s"] - trace["top_s"] * factor
            output_bytes += rec["out_bytes"]

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i]

    def ratio(hits_misses):
        total = sum(hits_misses)
        return hits_misses[0] / total if total else 0.0

    self_by_layer = {
        layer: sum((v[2] for k, v in spans.items() if k.split(".")[0] == layer), 0.0)
        for layer in LAYERS
    }
    counted = {
        "qalg.mul_calls": span("qalg.mul", 0),
        "qalg.mul_coeff_pairs": counts.get("mul_coeff_pairs", 0),
        "qalg.add_calls": span("qalg.add", 0),
        "qalg.divide_exact_calls": span("qalg.divide_exact", 0),
        "qalg.qbinomial_lookups": sum(qbin),
        "qalg.qbinomial_hit_ratio": ratio(qbin),
        "gtpop.enumerate_calls": span("gtpop.enumerate", 0),
        "gtpop.patterns": counts.get("patterns", 0),
        "charformulas.char_builds": span("charformulas.char_build", 0),
        "charformulas.char_terms": counts.get("char_terms", 0),
        "charformulas.char_mul_calls": span("charformulas.char_mul", 0),
        "charformulas.char_mul_pairs": counts.get("char_mul_pairs", 0),
        "charformulas.decompose_calls": span("charformulas.decompose", 0),
        "charformulas.peel_steps": counts.get("peel_steps", 0),
        "charformulas.pieri_calls": span("charformulas.pieri", 0),
        "filtration.verify_calls": span("filtration.verify", 0),
        "cli.output_bytes": output_bytes,
    }
    if char_cache_seen:
        counted["charformulas.char_cache_lookups"] = sum(char_cache)
        counted["charformulas.char_cache_hit_ratio"] = ratio(char_cache)
    timed = {
        "qalg.mul_s": span("qalg.mul", 1),
        "qalg.add_s": span("qalg.add", 1),
        "qalg.self_s": self_by_layer["qalg"],
        "gtpop.enumerate_s": span("gtpop.enumerate", 1),
        "gtpop.self_s": self_by_layer["gtpop"],
        "charformulas.char_build_s": span("charformulas.char_build", 1),
        "charformulas.char_mul_s": span("charformulas.char_mul", 1),
        "charformulas.decompose_self_s": span("charformulas.decompose", 2),
        "charformulas.pieri_s": span("charformulas.pieri", 1),
        "charformulas.self_s": self_by_layer["charformulas"],
        "filtration.verify_s": span("filtration.verify", 1),
        "filtration.self_s": self_by_layer["filtration"],
        "cli.overhead_s": cli_overhead,
        "bench.traced_wall_s": wall,
        "bench.uncovered_share": (wall - sum(self_by_layer.values())) / wall,
    }
    return counted, timed


def with_units(metrics, kind):
    """Attach to each metric the unit BENCHMARK.json declares for it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    return {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)}


def per_layer(traced, untraced):
    figures = [layer_pass(records) for records in traced]
    counted = figures[0][0]
    for other, _ in figures[1:]:
        if other != counted:
            sys.stderr.write("warning: per-layer counts differ between traced passes\n")
    metrics = dict(counted)
    for name in figures[0][1]:
        metrics[name] = statistics.median(t[name] for _, t in figures)
    plain = per_op_medians(untraced, "op_s")
    metrics["bench.untraced_wall_s"] = sum(plain.values())
    metrics["bench.raw_wall_s"] = sum(per_op_medians(untraced, "raw_op_s").values())
    metrics["bench.speed_factor"] = statistics.median(
        rec["factor"] for records in untraced for rec in records if "factor" in rec)
    metrics["bench.trace_overhead_s"] = metrics["bench.traced_wall_s"] - metrics["bench.untraced_wall_s"]
    for suite in SUITES:
        metrics["cli.suite.%s_s" % suite] = plain.get("verify " + suite, 0.0)
    return with_units(metrics, "per_layer")


# ---------------------------------------------------------------------------


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def record():
    """Write the digests and suite counts of the current checkout."""
    env = worker_env()
    expected = {"digests": {}, "verify_counts": {}}
    for unit in all_variants(expected):
        piped = None
        for op in unit:
            rec = run_op(op, False, env, expected, piped, check_digest=False)
            if op["key"].startswith("verify ") and rec["out"] is not None:
                counts = parse_summary(rec["out"])
                if not counts["fail"]:
                    expected["verify_counts"][op["key"][len("verify "):]] = counts
                    rec["failure"] = None
            if rec["failure"]:
                raise SystemExit("%s: %s" % (op["key"], rec["failure"]))
            expected["digests"][op["key"]] = digest(rec["out"])
            piped = rec["out"]
            sys.stderr.write("recorded %s\n" % op["key"])
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("char-ladder", "tensor-decompose", "verify-suites"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/expected.json from this checkout")
    args = parser.parse_args(argv)
    if not (SRC / "weylchar" / "__init__.py").is_file():
        sys.stderr.write("error: no weylchar package under %s\n" % SRC)
        return 2
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except SetupError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def bench(args):
    env = worker_env()
    expected = load_expected()
    rng = random.Random(args.seed)
    units = build_workload(args.workload, rng, expected)
    # Warm-up: the first interpreter start reads everything from disk.
    run_worker({"kind": "cli", "argv": ["verify", "--list"]}, env)
    passes = {True: [], False: []}
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(passes[True]) <= len(passes[False])
        passes[trace].append(run_pass(units, rng, trace, env, expected))
        elapsed = time.perf_counter() - start
        enough = elapsed >= args.seconds and (not args.trace or passes[False])
        if enough or elapsed >= PASS_START_LIMIT_S:
            break
    records = [rec for p in passes[True] + passes[False] for rec in p]
    attempted = len(records)
    failed = sum(1 for rec in records if rec["failure"])
    sys.stderr.write("%s seed=%d trace=%d: %d passes, %d operations, %d failed, %.1f s\n"
                     % (args.workload, args.seed, args.trace,
                        len(passes[True]) + len(passes[False]), attempted, failed, elapsed))
    if args.trace:
        metrics = per_layer(passes[True], passes[False])
    else:
        setups = [rec["setup_s"] for rec in records if "setup_s" in rec]
        metrics = end_to_end(passes[False], setups, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
