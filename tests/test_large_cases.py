"""Large cases that the unit tests avoid, each in its own interpreter.

Each row of CASES is a script run against src/ under -W error, ending with
the process's peak resident set size (VmHWM) on its last line. A row fails
on a nonzero exit, on a run longer than TIMEOUT_S seconds (the process is
killed) or on a peak at or above its limit in MB. All rows start at once, so
the table costs about its slowest row.
"""

from __future__ import annotations

import functools
import os
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

PRELUDE = """\
import math, sys
from weylchar import (
    Weight, decompose_weyl_basis, irreducible_char, pop_char, qwhittaker_char,
    verify_tensor_fundamental,
)
def dim(lam):
    return math.prod(math.comb(lam.n + 1, i) ** c for i, c in enumerate(lam.coeffs, 1))
"""

EPILOGUE = """
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")))
"""

# name: (peak RSS limit in MB or None, script run between PRELUDE and EPILOGUE)
CASES = {
    # qwhittaker_char of (2,2,2,2,2,2) has 1,598,955 terms on 1,716 dominant
    # keys; a character stores the dominant terms alone, and q1_dimension
    # counts each orbit without listing it. About 60 MB (ru_maxrss) on
    # CPython 3.10-3.13, 63.9 MB as VmHWM on 3.11.7, where a row memo that
    # visits every interlacing row, not only those that add a dominant key,
    # reads 94-98 MB (storing every term peaks near 520 MB)
    "rank-6-character": (90, """
lam = Weight(6, (2,) * 6)
char = qwhittaker_char(lam)
if char.q1_dimension() != dim(lam):
    sys.exit("dimension %d, not %d" % (char.q1_dimension(), dim(lam)))
"""),
    # qwhittaker_char of (30,30): nearly every row of its branching memo has
    # two parts, and a two-part row ends the recursion in closed form, each
    # value the binomial cache's own int, not a copy. 29-34 MB on CPython
    # 3.10-3.13, where a memo that branched on down to one-part rows and
    # stored a product copy of each binomial read 51-56 MB
    "deep-rank-2-character": (45, """
char = qwhittaker_char(Weight(2, (30, 30)))
if char.q1_dimension() != 3**60:
    sys.exit("dimension %d, not 3^60" % char.q1_dimension())
"""),
    # squares and decomposes qwhittaker_char of (3,3,3), (4,4,4) and
    # (2,2,2,2); the W(4,4,4) peel reads 7-byte slots of the packed row memo
    # into a 7-byte remainder, and the W(2,2,2,2) square walks orbits of up
    # to 120 keys. The components' dimensions at q = 1 must add up to
    # (dim W(lam))^2. The three squares share one process and their row memos
    # add up: 110-114 MB on CPython 3.10-3.13. A peel that rebuilt the row
    # memo at more widths would go above the limit; a row memo that visits
    # every interlacing row reads 136-140.4 MB. The limit is at most 140 MB,
    # not below it: VmHWM counts whole kB
    "rank-3-and-4-squares": (140 + 1 / 1024, """
for coeffs in ((3, 3, 3), (4, 4, 4), (2, 2, 2, 2)):
    lam = Weight(len(coeffs), coeffs)
    char = qwhittaker_char(lam)
    total = sum(p.at_one() * dim(mu) for mu, p in decompose_weyl_basis(char * char))
    if total != dim(lam) ** 2:
        sys.exit("%s: components add up to %d, not %d" % (coeffs, total, dim(lam) ** 2))
"""),
    # the omega1_omegan closed form against the brute product at rank 2,
    # m = k = 21 and 22. At 21 the closed-form sum packs 9-byte slots and
    # the product 8; at 22 both pack 9, so both run the per-slot
    # int.to_bytes path
    "tensor-9-byte-slots": (None, """
for m in (21, 22):
    report = verify_tensor_fundamental("omega1_omegan", m, m, 2)
    if report.status != "pass":
        sys.exit("omega1_omegan m = k = %d: %s" % (m, report.status))
"""),
    # qwhittaker_char of (24,24) packs its row memo and its q-binomial
    # weights in 10-byte slots, wider than any other row reaches. Its q = 0
    # specialisation must be irreducible_char, which enumerates GT patterns
    # and shares no code with the branching memo
    "wide-slot-character": (None, """
lam = Weight(2, (24, 24))
char = qwhittaker_char(lam)
if char.q1_dimension() != 3**48:
    sys.exit("dimension %d, not 3^48" % char.q1_dimension())
if char.specialize_q0() != irreducible_char(lam):
    sys.exit("q = 0 specialisation differs from irreducible_char")
"""),
    # pop_char, the POP oracle, against qwhittaker_char at W(3,3,3), W(4,4,4)
    # and W(2,2,2,2); the POP character's dimension at q = 1 must be dim(lam)
    "pop-oracle": (None, """
for coeffs in ((3, 3, 3), (4, 4, 4), (2, 2, 2, 2)):
    lam = Weight(len(coeffs), coeffs)
    char = pop_char(lam)
    if char != qwhittaker_char(lam):
        sys.exit("pop_char differs from qwhittaker_char at %s" % (coeffs,))
    if char.q1_dimension() != dim(lam):
        sys.exit("dimension %d at %s, not %d" % (char.q1_dimension(), coeffs, dim(lam)))
"""),
}


@functools.cache
def _runs():
    """{name: (exit status or None on timeout, stdout, stderr)} of every row,
    all started at once and each collected by TIMEOUT_S after the start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    children = {
        name: subprocess.Popen(
            [sys.executable, "-W", "error", "-c", PRELUDE + code + EPILOGUE],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, (_, code) in CASES.items()
    }
    deadline = time.monotonic() + TIMEOUT_S
    runs = {}
    for name, child in children.items():
        try:
            out, err = child.communicate(timeout=max(0.0, deadline - time.monotonic()))
            runs[name] = child.returncode, out, err
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
            runs[name] = None, out, err
    return runs


@pytest.mark.parametrize("name", CASES)
def test_large_case(name):
    status, out, err = _runs()[name]
    assert status is not None, "%s: not done within %d s\n%s" % (name, TIMEOUT_S, err)
    assert status == 0, "%s: exit status %d\n%s" % (name, status, err)
    kb = int(out.split("VmHWM:")[1].split()[0])
    limit = CASES[name][0]
    assert limit is None or kb < limit * 1024, "%s: peak RSS %d kB, not below %g MB" % (
        name, kb, limit,
    )
