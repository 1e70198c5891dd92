"""Measurement arithmetic and the correctness gate shared by every workload.

Nothing here times or calls the program by itself: workloads time each
operation, hand the result to :class:`Tally`, and run :func:`check_*` on the
output outside the timed call.
"""

from __future__ import annotations

import collections
import math
import os
import resource
import sys
import time
from fractions import Fraction
from statistics import median

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


class GateError(Exception):
    """An operation returned output that is wrong without saying so."""


def add_src_path(root: str) -> None:
    """Make the checkout's ``src/hrgc`` importable, or raise if it is missing."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hrgc", "__init__.py")):
        raise FileNotFoundError(f"no hrgc package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The host this runs on changes speed by up to a quarter for minutes at a
# time, which moves every timing alike.  Each operation is therefore timed
# next to a fixed reference loop, and its seconds are scaled to a host that
# runs the loop in REFERENCE_S.  The scaled times are what the metrics report.
REFERENCE_S = 0.001
_REFERENCE_ITERATIONS = 20000
_TABLE = [(i * 37) & 255 for i in range(256)]


def reference_loop():
    """Seconds this host takes for a fixed table-lookup loop right now."""
    t0 = time.perf_counter()
    acc = 0
    table = _TABLE
    for i in range(_REFERENCE_ITERATIONS):
        acc = table[(acc + i) & 255]
    return time.perf_counter() - t0


class HostClock:
    """Scales measured seconds to the reference host speed, from the median
    of the last few reference loops."""

    def __init__(self, window=5, loop=reference_loop):
        self.recent = collections.deque(maxlen=window)
        self.factors = []
        self.loop = loop

    def sample(self):
        self.recent.append(self.loop())

    def scale(self, seconds):
        factor = REFERENCE_S / median(self.recent)
        self.factors.append(factor)
        return seconds * factor


class Tally:
    """Sums per (operation, mode) from which every end-to-end rate follows.

    An operation is one timed call: encode (cluster creation), repair or
    reconstruct, under the mode requested, so an escalated detect stays
    "detect".  Throughput counts the symbols of exact results only (q*A per
    repaired node, B per reconstruct or encode) over the time of every call,
    failed ones included.  Traffic ratios divide the symbols that the exact
    results downloaded by the symbols they rebuilt or returned.
    """

    def __init__(self):
        self.seconds = {}
        self.symbols = {}
        self.downloaded = {}
        self.attempted = 0
        self.failed = 0           # explicit failures the program promised to avoid
        self.inexact = 0          # every explicit failure

    def record(self, op, mode, seconds, symbols, ok, downloaded=0,
               guaranteed=True):
        key = (op, mode)
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.symbols[key] = self.symbols.get(key, 0) + (symbols if ok else 0)
        self.downloaded[key] = self.downloaded.get(key, 0) + (
            downloaded if ok else 0)
        self.attempted += 1
        if not ok:
            self.inexact += 1
            if guaranteed:
                self.failed += 1

    def _sum(self, table, op, mode):
        return sum(v for (o, m), v in table.items()
                   if o == op and (mode is None or m == mode))

    def has(self, op, mode=None):
        return any(o == op and (mode is None or m == mode)
                   for o, m in self.seconds)

    def throughput(self, op, mode=None):
        """Symbols of exact results per second of calls; mode None pools."""
        secs = self._sum(self.seconds, op, mode)
        return self._sum(self.symbols, op, mode) / secs if secs else 0.0

    def traffic_ratio(self, op):
        produced = self._sum(self.symbols, op, None)
        return self._sum(self.downloaded, op, None) / produced if produced else 0.0

    def op_seconds(self):
        return sum(self.seconds.values())

    def failed_frac(self):
        return self.inexact / self.attempted if self.attempted else 0.0


def median_throughput(cycles, op, mode=None):
    """Median over workload cycles of each cycle's throughput.

    A cycle holds the same mix of operations every time, so its summed
    throughput is one sample; the median discards cycles that a busy host
    slowed.  Cycles without the operation are skipped.
    """
    return median([c.throughput(op, mode) for c in cycles if c.has(op, mode)])


def tail_percentile(samples):
    """Median plus the highest ladder percentile with >= 10 samples beyond it.

    Returns ``(p50, (p, value, beyond) or None, n)`` using nearest-rank
    percentiles; ``beyond`` is the number of samples strictly above the rank.
    """
    n = len(samples)
    if not n:
        return None, None, 0
    xs = sorted(samples)

    def rank(p):  # exact, so that p99.9 of 10000 samples is rank 9990
        return max(1, math.ceil(Fraction(str(p)) * n / 100))

    p50 = xs[rank(50.0) - 1]
    tail = None
    for p in PERCENTILE_LADDER:
        beyond = n - rank(p)
        if beyond >= MIN_BEYOND:
            tail = (p, xs[rank(p) - 1], beyond)
    return p50, tail, n


# -- correctness gate ---------------------------------------------------------------


def check_equal(what, got, want):
    if got != want:
        raise GateError(f"{what}: output differs from the input")


def check_blame(what, blamed, liars):
    """Every node a report or the cluster blames must be a planted liar."""
    wrong = set(blamed) - set(liars)
    if wrong:
        raise GateError(f"{what}: honest nodes {sorted(wrong)} blamed")


def check_report(what, report, got, want, liars):
    """Gate one engine report whose result is ``got`` (its message or its
    repaired node).  Returns True for an exact result, False for an explicit
    failure; raises GateError for silently wrong output."""
    check_blame(what, report.corrupted, liars)
    if not report.ok:
        if report.failure is None and report.alarm is None:
            raise GateError(f"{what}: not ok, but neither failure nor alarm")
        return False
    check_equal(what, got, want)
    return True


def check_traffic(what, counted, audit):
    """Symbols counted at the helpers, per layer, against bandwidth_audit.

    ``counted`` maps layer -> symbols the helper responses carried during the
    operation, over all of its phases; the audit's per-phase expectations
    are the protocol's exact accounting.
    """
    if not audit["ok"]:
        raise GateError(f"{what}: bandwidth audit failed")
    expected = {}
    for phase in audit["phases"].values():
        for l, row in phase["per_layer"].items():
            expected[l] = expected.get(l, 0) + row["expected"]
    layers = set(expected) | set(counted)
    if any(counted.get(l, 0) != expected.get(l, 0) for l in layers):
        raise GateError(
            f"{what}: per-layer download {dict(sorted(counted.items()))} "
            f"!= audit {dict(sorted(expected.items()))}"
        )
