"""Outcome digest: one hash over the observable results of many seeded sim runs.

Run it on two trees and compare the output lines to show that a change keeps
behaviour identical:

    PYTHONPATH=<tree>/src python3 tests/outcome_digest.py [trials]

It prints ``<records> <sha256>``.  Each record is one operation on a fresh
cluster: q=3 and q=4, MSR and MBR (five profiles), seven adversaries with
1-3 liars, plain, detect (report and escalate policy) and recover mode, for
reconstruction and for repair with one and with two failed nodes, plus a
chained recover reconstruction and detect repair that carries the flagged
nodes across calls.  A record holds ``ok``, the alarm, the failure text,
``corrupted``, the tallies, the message or repaired node, the exchange log's
meta and records and the cluster's ``known_corrupt``, or the exception type
and text.  Only the standard library is used; pytest does not collect this
file.

A change meant to alter outcomes lists the records that differ: print each
record's key with a short hash of its result in each tree, and diff the two
lists.

    PYTHONPATH=<tree>/src:<tree>/tests python3 -c '
    import hashlib, outcome_digest
    for key, result in outcome_digest.records(4):
        print(key, hashlib.sha256(repr(result).encode()).hexdigest()[:12])
    ' > <tree>.txt
    diff parent.txt change.txt

A change that alters bytes everywhere (the coefficients, say) moves every
hash; its records are compared by kind instead, with no bytes:

    PYTHONPATH=<tree>/src python3 tests/outcome_digest.py 4 kinds > <tree>.txt

prints one line per record, its key and ``kind``: the exception type, or
the report's mode, verdict (``ok``, ``ok but wrong`` when the message or
node differs from the truth, the alarm or the failure text) and corrupted
set.
"""

from __future__ import annotations

import hashlib
import random
import sys

from hrgc import sim
from hrgc.errors import HrgcError
from hrgc.matrices import profile_new

PROFILES = (
    ("q3_msr", ("msr", 3, 8, (3, 2, 1)), {"seed": 2}),
    ("q3_mbr", ("mbr", 3, 8, (3, 2, 1)), {"k": (2, 2, 1), "seed": 3}),
    ("q3_mbr_full", ("mbr", 3, 8, (3, 2, 1)), {"k": (3, 2, 1), "seed": 5}),
    ("q4_msr", ("msr", 4, 37, (6, 5, 4, 3)), {"seed": 1}),
    ("q4_mbr", ("mbr", 4, 37, (6, 5, 4, 3)), {"k": (6, 5, 4, 3), "seed": 4}),
)

MODES = (("plain", "escalate"), ("detect", "report"), ("detect", "escalate"),
         ("recover", "escalate"))


def adversaries(profile, rng):
    """Seven specs with 1-3 liars drawn among the low node ids, which the
    staged request plans ask first."""
    pool = range(min(profile.n_nodes, max(profile.d) + 2))

    def spec(count, **kw):
        return sim.AdversarySpec(nodes=frozenset(rng.sample(pool, count)),
                                 seed=rng.randrange(1 << 16), **kw)

    return [
        spec(1),
        spec(2),
        spec(3),
        spec(1, strategy="offset", offset=rng.randrange(1, profile.field.order)),
        spec(2, strategy="layer", layer=rng.randrange(profile.q)),
        spec(2, activation=0.3),
        spec(2, strategy="consistent_pair"),
    ]


def outcome(cluster, call):
    try:
        report, log = call()
    except HrgcError as exc:
        return ("raised", type(exc).__name__, str(exc))
    out = getattr(report, "y", None)
    if out is None:
        out = getattr(report, "message", None)
    return (report.mode, report.ok, report.alarm, report.failure,
            sorted(report.corrupted), sorted(report.tallies.items()), out,
            sorted(log.meta.items()), log.records, sorted(cluster.known_corrupt))


def kind(cluster, call):
    """A record's kind, with no bytes (see the module docstring)."""
    try:
        report, log = call()
    except HrgcError as exc:
        return ("raised", type(exc).__name__)
    if report.ok:
        z = log.meta.get("target")
        exact = (report.message == cluster.truth_message if z is None
                 else report.y == cluster.truth_nodes[z])
        verdict = "ok" if exact else "ok but wrong"
    else:
        verdict = report.alarm or report.failure
    return (report.mode, verdict, sorted(report.corrupted))


def records(trials, judge=outcome):
    """(key, judge(cluster, call)) for every operation of the digest."""
    for name, args, kwargs in PROFILES:
        profile = profile_new(*args, **kwargs)
        n = profile.n_nodes
        for trial in range(trials):
            rng = random.Random(f"{name}/{trial}")
            message = [rng.randrange(profile.field.order)
                       for _ in range(profile.B)]

            def fresh(*failed):
                cluster = sim.cluster_init(profile, message)
                for g in failed:
                    sim.fail_node(cluster, g)
                return cluster

            for a, adv in enumerate(adversaries(profile, rng)):
                z, other = rng.sample(range(n), 2)
                key = (name, trial, a)
                for mode, policy in MODES:
                    c = fresh()
                    yield key + ("reconstruct", mode, policy), judge(
                        c, lambda: sim.reconstruct(c, mode, adv, policy))
                    for failed in ((z,), (other, z)):
                        c = fresh(*failed)
                        yield key + ("repair", failed, mode, policy), judge(
                            c, lambda: sim.repair(c, z, mode, adv, policy))
                c = fresh()
                yield key + ("chain", "reconstruct"), judge(
                    c, lambda: sim.reconstruct(c, "recover", adv))
                sim.fail_node(c, z)
                yield key + ("chain", "repair", z), judge(
                    c, lambda: sim.repair(c, z, "detect", adv))


def digest(trials):
    """(record count, sha256 hex) over ``records(trials)``."""
    h = hashlib.sha256()
    count = 0
    for key, result in records(trials):
        h.update(repr((key, result)).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def kinds(trials):
    """(key, kind) for every operation of the digest."""
    return records(trials, judge=kind)


def main(argv):
    trials = int(argv[1]) if len(argv) > 1 else 4
    if argv[2:] == ["kinds"]:
        for key, k in kinds(trials):
            print(key, k)
    else:
        print(*digest(trials))


if __name__ == "__main__":
    main(sys.argv)
