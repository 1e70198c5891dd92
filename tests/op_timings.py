"""Operation timings: the minimum of N timed sim calls per (code, q, op, mode).

Run it on two trees to compare what one operation costs in each:

    PYTHONPATH=<tree>/src python3 tests/op_timings.py [--q 4 5]
        [--code msr mbr] [--op encode repair reconstruct]
        [--mode plain detect recover] [--repeat 40] [--liars 2,5]

It prints one line per (code, q, op, mode): ``<code> q=<q> <op> <mode>
<ms>``, the fastest of ``--repeat`` calls in milliseconds, or the exception
type when the operation raises.  The profiles are the tests' fixtures (q=5
is the ``honest-q5`` bench workload's).  Encode times ``sim.cluster_init``
on one fixed message; its mode reads ``-``.  Repair and reconstruction run on
one cluster that is built before the timing; before each repair its
target (node 1) is put back from the stored truth and failed again, outside
the timing.  With ``--liars`` the listed nodes lie (``nodes=...;seed=3``, the
simulator's default random strategy) in every call, and the cluster's
flagged set is cleared before each call, so every call meets them afresh.
Only the standard library is used; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import random
import time

from hrgc import sim
from hrgc.errors import HrgcError
from hrgc.hmsr import NodeState
from hrgc.matrices import profile_new

PROFILES = {
    ("msr", 3): ("msr", 3, 8, (3, 2, 1), {"seed": 2}),
    ("mbr", 3): ("mbr", 3, 8, (3, 2, 1), {"k": (2, 2, 1), "seed": 3}),
    ("msr", 4): ("msr", 4, 37, (6, 5, 4, 3), {"seed": 1}),
    ("mbr", 4): ("mbr", 4, 37, (6, 5, 4, 3), {"k": (6, 5, 4, 3), "seed": 4}),
    ("msr", 5): ("msr", 5, 34, (7, 6, 5, 4, 3), {"seed": 1}),
    ("mbr", 5): ("mbr", 5, 34, (7, 6, 5, 4, 3),
                 {"k": (7, 6, 5, 4, 3), "seed": 4}),
}
TARGET = 1


def best_ms(call, before, repeat):
    """The fastest of ``repeat`` timed calls of ``call``, in ms; ``before``
    runs untimed ahead of each."""
    best = float("inf")
    for _ in range(repeat):
        before()
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def timings(code, q, ops, modes, repeat, liars):
    """[(op, mode, ms or exception name)] for the profile of (code, q)."""
    mode_, q_, m, alpha, kw = PROFILES[(code, q)]
    profile = profile_new(mode_, q_, m, alpha, **kw)
    rng = random.Random(1)
    message = [rng.randrange(profile.field.order) for _ in range(profile.B)]
    cluster = sim.cluster_init(profile, message)
    truth = cluster.truth_nodes[TARGET]
    adversary = (sim.parse_adversary(f"nodes={liars};seed=3") if liars
                 else None)

    def fresh():
        cluster.known_corrupt.clear()

    def failed():
        fresh()
        cluster.nodes[TARGET] = NodeState(TARGET, [row[:] for row in truth])
        sim.fail_node(cluster, TARGET)

    out = []
    if "encode" in ops:
        out.append(("encode", "-", best_ms(
            lambda: sim.cluster_init(profile, message), lambda: None, repeat)))
    for op in ("repair", "reconstruct"):
        if op not in ops:
            continue
        for mode in modes:
            if op == "repair":
                call, before = (lambda: sim.repair(cluster, TARGET, mode,
                                                   adversary)), failed
            else:
                call, before = (lambda: sim.reconstruct(cluster, mode,
                                                        adversary)), fresh
            try:
                out.append((op, mode, best_ms(call, before, repeat)))
            except HrgcError as exc:        # report it and time the rest
                out.append((op, mode, type(exc).__name__))
    cluster.nodes[TARGET] = NodeState(TARGET, [row[:] for row in truth])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--q", type=int, nargs="+", default=[5],
                   choices=sorted({q for _, q in PROFILES}))
    p.add_argument("--code", nargs="+", default=["msr", "mbr"],
                   choices=["msr", "mbr"])
    p.add_argument("--op", nargs="+", default=["encode", "repair",
                                                "reconstruct"],
                   choices=["encode", "repair", "reconstruct"])
    p.add_argument("--mode", nargs="+", default=["plain", "detect", "recover"],
                   choices=list(sim.MODES))
    p.add_argument("--repeat", type=int, default=40)
    p.add_argument("--liars", default="",
                   help="comma-separated lying node ids, e.g. 2,5")
    args = p.parse_args(argv)
    for q in args.q:
        for code in args.code:
            for op, mode, ms in timings(code, q, args.op, args.mode,
                                        args.repeat, args.liars):
                shown = ms if isinstance(ms, str) else f"{ms:.3f}"
                print(f"{code} q={q} {op} {mode} {shown}", flush=True)


if __name__ == "__main__":
    main()
