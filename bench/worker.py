"""Run one benchmark operation in a fresh interpreter.

The protocol is one line each way. Right after ``import weylchar`` the worker
writes ``ready <path of the imported package>`` to stdout, so the driver can
time interpreter start plus import as the span up to that line. It then reads
one JSON job from stdin, runs it, and writes one JSON result line. The
reported ``op_s`` covers the operation only, with start-up and imports left
out, and ``rss_kb`` is the peak resident set size right after it.

The worker also times a fixed pure-Python probe loop: ten times before the
operation, every PROBE_INTERVAL_S during it and ten times after it. The driver
uses these times to take the host's changing speed out of every time the
worker reports (see ``bench/README.md``).

Job kinds:

- ``cli``: call ``weylchar.cli.main(argv)`` with stdin fed from the job and
  stdout captured; the output is the exact text the command prints.
- ``lib_tensor``: build ``qwhittaker_char`` of two weights, multiply them with
  ``char_multiply`` and expand the product with ``decompose_weyl_basis``.

With ``"trace": true`` the worker wraps the package's public entry points at
the module and class attributes their callers look up (see ``Tracer``), and
returns per-span call counts, inclusive and self times, and counters.
"""

import sys

import weylchar

sys.stdout.write("ready %s\n" % weylchar.__file__)
sys.stdout.flush()

import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


class Tracer:
    """Aggregated spans around the package's public entry points.

    Each span name maps to ``[calls, inclusive_s, self_s]``. A span's self
    time is its duration minus the time of the traced calls it made. Time
    spent outside every traced call accumulates nowhere, so the driver gets
    it as the operation time minus ``top_s``. Like the operation time, span
    durations leave out the time the clock's speed probes took.
    """

    def __init__(self, clock):
        self.clock = clock
        self.stack = []
        self.spans = {}
        self.counts = {}
        self.top_s = 0.0

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name, after=None):
        """Return ``fn`` timed under ``name`` (a string or a function of args).

        ``after(args, result)`` runs outside the span, to update counters.
        """
        stack, spans, perf, clock = self.stack, self.spans, time.perf_counter, self.clock

        def traced(*args, **kwargs):
            key = name if isinstance(name, str) else name(args)
            stack.append(0.0)
            probed = clock.spent
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0 - (clock.spent - probed)
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    def patch_function(self, module, attr, name, after=None):
        """Replace a function at every weylchar module attribute bound to it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "weylchar" and not mod_name.startswith("weylchar."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name, after=None):
        setattr(cls, attr, self.wrap(vars(cls)[attr], name, after))

    def install(self):
        from weylchar import charformulas, filtration, gtpop, qalg

        QPoly = qalg.QPoly
        GradedCharacter = charformulas.GradedCharacter

        def mul_pairs(args, result):
            if result is NotImplemented:
                return
            other = args[1]
            width = len(other.coeffs) if isinstance(other, QPoly) else 1
            self.count("mul_coeff_pairs", len(args[0].coeffs) * width)

        for attr in ("__mul__", "__rmul__"):
            self.patch_method(QPoly, attr, "qalg.mul", mul_pairs)
        for attr in ("__add__", "__radd__"):
            self.patch_method(QPoly, attr, "qalg.add")
        self.patch_method(QPoly, "divide_exact", "qalg.divide_exact")

        self.patch_function(
            gtpop, "enumerate_gt", "gtpop.enumerate",
            lambda args, result: self.count("patterns", len(result)),
        )
        self.patch_function(
            charformulas, "qwhittaker_partition_char", "charformulas.char_build",
            lambda args, result: self.count("char_terms", len(result.terms)),
        )

        def char_mul_name(args):
            if isinstance(args[1], GradedCharacter):
                return "charformulas.char_mul"
            return "charformulas.char_scale"

        def char_mul_pairs(args, result):
            if isinstance(args[1], GradedCharacter):
                self.count("char_mul_pairs", len(args[0].terms) * len(args[1].terms))

        for attr in ("__mul__", "__rmul__"):
            self.patch_method(GradedCharacter, attr, char_mul_name, char_mul_pairs)
        self.patch_function(
            charformulas, "decompose_weyl_basis", "charformulas.decompose",
            lambda args, result: self.count("peel_steps", len(result)),
        )
        self.patch_function(charformulas, "product_onerow", "charformulas.pieri")
        for attr in sorted(vars(filtration)):
            if attr.startswith("verify_") and callable(getattr(filtration, attr)):
                self.patch_function(filtration, attr, "filtration.verify")

    def report(self):
        from weylchar import charformulas, qalg

        info = qalg.q_binomial.cache_info()
        cached = getattr(charformulas, "_partition_char_cached", None)
        char_cache = None
        if cached is not None and hasattr(cached, "cache_info"):
            char_info = cached.cache_info()
            char_cache = [char_info.hits, char_info.misses]
        return {
            "spans": self.spans,
            "counts": self.counts,
            "top_s": self.top_s,
            "qbinomial": [info.hits, info.misses],
            "char_cache": char_cache,
        }


PROBE_LOOPS = 5000
PROBE_INTERVAL_S = 0.05


def probe():
    """Time one fixed pure-Python loop: a sample of the machine's speed."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(PROBE_LOOPS):
        k = i & 127
        acc[k] = acc.get(k, 0) + i * 3
    return time.perf_counter() - t0


class OpClock:
    """Times an operation and samples the machine's speed while it runs.

    A SIGALRM handler runs ``probe`` every PROBE_INTERVAL_S. The time the
    handler takes is left out of ``op_s``; the timer is stopped before the
    clock is read, so a probe that runs late is counted on both sides.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.op_s = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.op_s = time.perf_counter() - self.t0 - self.spent
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_kb():
    """Peak resident set size of this interpreter, VmHWM in kB.

    Not ``ru_maxrss``: that survives exec and so can report the driver's own
    size instead of the worker's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_cli(job, tracer, clock):
    from weylchar import cli

    if tracer is not None:
        tracer.install()
    real = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.get("stdin") or ""), out, err
    try:
        with clock:
            code = cli.main(job["argv"])
    finally:
        sys.stdin, sys.stdout, sys.stderr = real
    return {"exit": code, "rss_kb": peak_rss_kb(), "out": out.getvalue(), "err": err.getvalue()}


def run_lib_tensor(job, tracer, clock):
    a = weylchar.Weight(len(job["a"]), job["a"])
    b = weylchar.Weight(len(job["b"]), job["b"])
    if tracer is not None:
        tracer.install()
    with clock:
        product = weylchar.char_multiply(weylchar.qwhittaker_char(a), weylchar.qwhittaker_char(b))
        components = weylchar.decompose_weyl_basis(product)
    rss_kb = peak_rss_kb()
    out = json.dumps(
        {
            "product": product.to_json(),
            "components": [[list(w.coeffs), c.coefficient_list()] for w, c in components],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return {"exit": 0, "rss_kb": rss_kb, "out": out, "err": ""}


RUNNERS = {"cli": run_cli, "lib_tensor": run_lib_tensor}


def main():
    job = json.loads(sys.stdin.readline())
    cached = weylchar.qalg.q_binomial.cache_info().currsize
    if cached:
        result = {"error": "q_binomial cache holds %d entries before the clock" % cached}
    else:
        clock = OpClock()
        tracer = Tracer(clock) if job.get("trace") else None
        before = [probe() for _ in range(10)]
        try:
            result = RUNNERS[job["kind"]](job, tracer, clock)
        except Exception:
            result = {"error": traceback.format_exc()}
        else:
            result["op_s"] = clock.op_s
            result["probes"] = [before, clock.samples, [probe() for _ in range(10)]]
            if tracer is not None:
                result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
