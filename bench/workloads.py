"""The three workloads.  Each is a closed loop with one client in one process:
the next operation starts only when the previous one has returned.

A workload's inputs come only from its seed: the files or messages, the
failed-node ids and the adversary specs.  Every operation's output is gated
outside its timed call (see harness.check_*).
"""

from __future__ import annotations

import contextlib
import io
import os
import time

from harness import GateError, HostClock, Tally, check_blame, check_equal
from harness import check_report, check_traffic


class Context:
    """What one pass of a workload shares: the tally, the observer, the
    optional tracer and the counters the traced output reports."""

    def __init__(self, observer, tracer=None, clock=None):
        self.tally = Tally()
        self.cycles = []
        self.observer = observer
        self.tracer = tracer
        self.clock = clock or HostClock()
        self.escalations = 0
        self.detect_ops = 0
        self.detect_clean = 0
        self.sim_latency = {}

    def begin_cycle(self):
        self.cycles.append(Tally())

    def record(self, *args, **kwargs):
        """Record one operation in the run's tally and the cycle's."""
        self.tally.record(*args, **kwargs)
        self.cycles[-1].record(*args, **kwargs)

    def timed(self, op, mode, fn):
        """Run one operation; return (result, seconds at reference speed)."""
        tracer = self.tracer
        self.clock.sample()
        sid = tracer.begin_op(f"op.{op}", mode) if tracer else None
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.close(sid)
        return result, self.clock.scale(seconds)

    def sim_op(self, what, liars):
        """Gate the one sim operation just completed; return (report,
        symbols downloaded)."""
        done = self.observer.take()
        if len(done) != 1:
            raise GateError(f"{what}: expected one sim operation, saw {len(done)}")
        rec = done[0]
        self.sim_latency.setdefault((rec["op"], rec["mode"]), []).append(
            rec["seconds"])
        from hrgc import sim
        audit = sim.bandwidth_audit(rec["log"], rec["profile"])
        check_traffic(what, rec["counted"], audit)
        check_blame(what, rec["report"].corrupted, liars)
        escalated = bool(rec["log"].meta.get("escalated"))
        self.escalations += escalated
        if rec["mode"] == "detect":
            self.detect_ops += 1
            self.detect_clean += rec["report"].ok and not escalated
        return rec["report"], sum(rec["counted"].values())


def repair_guaranteed(profile, liars):
    """Whether the program promises an exact repair against ``liars``.

    MBR repair decodes Vandermonde codes, exact up to the layered budget of
    README "Recovery budgets".  MSR repair with flagged helpers needs the
    surviving nu rows to be independent, which no coefficient choice ensures
    for every subset (README "Parameters"), so against any liar an explicit
    failure is an allowed outcome.
    """
    if not liars:
        return True
    if profile.mode == "msr":
        return False
    n = profile.n_nodes
    return len(liars) <= min(n - profile.d[0] - 1, (n - profile.d[-1] - 1) // 2)


def reconstruct_guaranteed(profile, liars):
    """Reconstruct decodes Vandermonde codes: exact while
    2*liars + 1 <= q^2 - alpha_0 (MSR) or 2*liars <= q^2 - k_0 (MBR)."""
    n = profile.n_nodes
    if profile.mode == "msr":
        return 2 * len(liars) + 1 <= n - profile.alpha[0]
    return 2 * len(liars) <= n - profile.k[0]


# -- honest-cli -------------------------------------------------------------------

CLI_CODES = (
    # mode, profile flags, input bytes: the largest single-stripe file
    ("msr", ["--q", "4", "--m", "37", "--alphas", "6,5,4,3", "--seed", "1"], 652),
    ("mbr", ["--q", "4", "--m", "37", "--alphas", "6,5,4,3", "--ks", "6,5,4,3",
             "--seed", "4"], 322),
)
CLI_NODES = 16


def _cli(argv):
    from hrgc import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class HonestCli:
    """The operator path: hrgc.cli.main in-process on cluster directories."""

    name = "honest-cli"
    trace_rate = 1.2      # traced cycles per second of --seconds

    def setup(self, work, rng):
        state = []
        for mode, flags, size in CLI_CODES:
            base = os.path.join(work, mode)
            os.makedirs(base, exist_ok=True)
            profile = os.path.join(base, "profile.txt")
            if _cli(["profile", "--mode", mode, *flags, "--out", profile]):
                raise GateError(f"{self.name}: profile {mode} failed")
            entry = {"mode": mode, "profile": profile, "size": size,
                     "input": os.path.join(base, "input.bin"),
                     "output": os.path.join(base, "output.bin"),
                     "cluster": os.path.join(base, "cluster")}
            _write(entry["input"], rng.randbytes(size))
            if _cli(self._encode_argv(entry)):
                raise GateError(f"{self.name}: initial encode {mode} failed")
            state.append(entry)
        return state

    @staticmethod
    def _encode_argv(entry):
        return ["encode", "--profile", entry["profile"],
                "--input", entry["input"], "--outdir", entry["cluster"]]

    def cycle(self, ctx, state, rng):
        for entry in state:
            self._cycle_code(ctx, entry, rng)

    def _cycle_code(self, ctx, entry, rng):
        data = rng.randbytes(entry["size"])
        _write(entry["input"], data)
        argv = self._encode_argv(entry)
        rc, dt = ctx.timed("encode", "-", lambda: _cli(argv))
        symbols = 2 * (len(data) + 8)  # GF(16) packs two symbols per byte
        ctx.record("encode", "-", dt, symbols, rc == 0)
        if rc:
            return
        if ctx.observer.take():
            raise GateError(f"{self.name}: encode ran a sim operation")
        for mode in ("plain", "detect"):
            argv = ["reconstruct", "--cluster", entry["cluster"], "--mode", mode,
                    "--out", entry["output"]]
            rc, dt = ctx.timed("reconstruct", mode, lambda: _cli(argv))
            report, down = ctx.sim_op(f"{self.name} reconstruct {mode}", ())
            if rc == 0:
                check_equal(f"{self.name} reconstruct {mode}",
                            _read(entry["output"]), data)
            ctx.record("reconstruct", mode, dt, symbols, rc == 0, down)
        for mode in ("plain", "detect"):
            z = rng.randrange(CLI_NODES)
            node = os.path.join(entry["cluster"], f"node_{z:03d}.bin")
            truth = _read(node)
            if _cli(["fail", "--cluster", entry["cluster"], "--node", str(z)]):
                raise GateError(f"{self.name}: fail {z} refused")
            argv = ["repair", "--cluster", entry["cluster"], "--node", str(z),
                    "--mode", mode]
            rc, dt = ctx.timed("repair", mode, lambda: _cli(argv))
            report, down = ctx.sim_op(f"{self.name} repair {mode}", ())
            if rc == 0:
                check_equal(f"{self.name} repair {mode} node {z}",
                            _read(node), truth)
            ctx.record("repair", mode, dt, _payload_symbols(report), rc == 0,
                       down)
            if rc:
                return

    def extra_metrics(self, state):
        """Bytes of node files on disk per byte of the user files they hold."""
        stored = user = 0
        for entry in state:
            cluster = entry["cluster"]
            stored += sum(os.path.getsize(os.path.join(cluster, f))
                          for f in os.listdir(cluster) if f.startswith("node_"))
            user += os.path.getsize(entry["input"])
        return {"stored_bytes_per_user_byte": (stored / user, "B/B")}


def _payload_symbols(report):
    return sum(len(row) for row in report.y) if report.ok else 0


# -- in-memory workloads through sim -------------------------------------------------


def _message(rng, profile):
    order = profile.field.order
    return [rng.randrange(order) for _ in range(profile.B)]


class _SimWorkload:
    codes = ()

    def extra_metrics(self, state):
        return {}

    def setup(self, work, rng):
        from hrgc import sim
        from hrgc.matrices import profile_new
        state = []
        for mode, q, m, alpha, k, seed in self.codes:
            profile = profile_new(mode, q, m, alpha, k=k, seed=seed)
            sim.cluster_init(profile, _message(rng, profile))
            state.append(profile)
        return state

    def _encode(self, ctx, profile, rng):
        from hrgc import sim
        message = _message(rng, profile)
        cluster, dt = ctx.timed("encode", "-",
                                lambda: sim.cluster_init(profile, message))
        ctx.record("encode", "-", dt, profile.B, True)
        if ctx.observer.take():
            raise GateError(f"{self.name}: encode ran a sim operation")
        return cluster, message

    def _reconstruct(self, ctx, cluster, message, mode, adversary=None,
                     liars=()):
        from hrgc import sim
        what = f"{self.name} {cluster.profile.mode} reconstruct {mode}"
        (report, _log), dt = ctx.timed(
            "reconstruct", mode, lambda: sim.reconstruct(cluster, mode, adversary))
        report, down = ctx.sim_op(what, liars)
        ok = check_report(what, report, report.message, message, liars)
        check_blame(what, cluster.known_corrupt, liars)
        ctx.record("reconstruct", mode, dt, cluster.profile.B, ok, down,
                   reconstruct_guaranteed(cluster.profile, liars))

    def _repair(self, ctx, cluster, z, mode, adversary=None, liars=()):
        from hrgc import sim
        profile = cluster.profile
        what = f"{self.name} {profile.mode} repair {mode} node {z}"
        if cluster.nodes[z] is not None:
            sim.fail_node(cluster, z)
        (report, _log), dt = ctx.timed(
            "repair", mode, lambda: sim.repair(cluster, z, mode, adversary))
        report, down = ctx.sim_op(what, liars)
        truth = cluster.truth_nodes[z]
        ok = check_report(what, report, report.y, truth, liars)
        if ok:
            check_equal(f"{what} (installed)", cluster.nodes[z].y, truth)
        check_blame(what, cluster.known_corrupt, liars)
        ctx.record("repair", mode, dt, profile.q * profile.A, ok, down,
                   repair_guaranteed(profile, liars))


class HonestQ5(_SimWorkload):
    """GF(25): odd characteristic, and a stripe 10x the q=4 one."""

    name = "honest-q5"
    trace_rate = 0.2
    codes = (
        ("msr", 5, 34, (7, 6, 5, 4, 3), None, 1),
        ("mbr", 5, 34, (7, 6, 5, 4, 3), (7, 6, 5, 4, 3), 4),
    )

    def cycle(self, ctx, state, rng):
        for profile in state:
            cluster, message = self._encode(ctx, profile, rng)
            for mode in ("plain", "detect"):
                self._reconstruct(ctx, cluster, message, mode)
            for mode in ("plain", "detect"):
                self._repair(ctx, cluster, rng.randrange(profile.n_nodes), mode)


# One cycle runs every row: per code, liar counts 1..4, all three strategies
# and both activations.  The table, not the seed, fixes each trial's cost
# class, so every cycle holds the same mix; the seed picks the liars, the
# failed node, the messages and the adversaries' own seeds and offsets.
# (liars, strategy, activation, layer for "layer") per code, row by row.
TRIALS = (
    {"msr": (1, "random", "1.0", None), "mbr": (3, "layer", "0.5", 2)},
    {"msr": (2, "offset", "0.5", None), "mbr": (4, "offset", "1.0", None)},
    {"msr": (3, "layer", "1.0", 1), "mbr": (1, "random", "0.5", None)},
    {"msr": (4, "random", "0.5", None), "mbr": (2, "layer", "1.0", 0)},
)


class ByzantineSim(_SimWorkload):
    """Seeded liars against fresh q=4 clusters; the decoder does the work."""

    name = "byzantine-sim"
    trace_rate = 0.05
    codes = (
        ("msr", 4, 37, (6, 5, 4, 3), None, 1),
        ("mbr", 4, 37, (6, 5, 4, 3), (6, 5, 4, 3), 4),
    )

    def adversary(self, profile, rng, row):
        """Spec text and liar set for one trial.

        The first liar serves every layer of the detect-mode reconstruct
        (ids below k_last + 1), so that operation always sees a lie and
        escalates.
        """
        count, strategy, activation, layer = row
        first = rng.randrange(profile.k[-1] + 1)
        others = [g for g in range(profile.n_nodes) if g != first]
        liars = frozenset([first, *rng.sample(others, count - 1)])
        parts = [f"nodes={','.join(str(g) for g in sorted(liars))}",
                 f"strategy={strategy}", f"seed={rng.randrange(1 << 30)}",
                 f"activation={activation}"]
        if strategy == "offset":
            parts.append(f"offset={rng.randrange(1, profile.field.order)}")
        if layer is not None:
            parts.append(f"layer={layer}")
        return ";".join(parts), liars

    def cycle(self, ctx, state, rng):
        for row in TRIALS:
            for profile in state:
                self._trial(ctx, profile, rng, row[profile.mode])

    def _trial(self, ctx, profile, rng, row):
        from hrgc import sim
        text, liars = self.adversary(profile, rng, row)
        adversary = sim.parse_adversary(text)
        cluster, message = self._encode(ctx, profile, rng)
        self._reconstruct(ctx, cluster, message, "detect", adversary, liars)
        self._reconstruct(ctx, cluster, message, "recover", adversary, liars)
        z = rng.choice([g for g in range(profile.n_nodes) if g not in liars])
        for mode in ("detect", "recover"):
            self._repair(ctx, cluster, z, mode, adversary, liars)


WORKLOADS = {w.name: w for w in (HonestCli(), ByzantineSim(), HonestQ5())}
