"""Deterministic in-process storage cluster: node lifecycle, staged request
rounds as message exchanges, adversary injection, and flat-file persistence.

Every operation is a pure function of (cluster state, adversary spec, op
counter): adversaries draw from a Random seeded by (spec.seed, op counter),
and every round asks the plan of ``hmsr.staged_request_plan``; a call
refused as bad input is not counted.  Adversaries only perturb outgoing
copies; stored node state is never touched except when a finished repair
installs the replacement.  An alarm under the default escalate policy always
ends in either a recover-mode result or an explicit failure report.

An adversary spec is the keys of ``_SPEC_PARSERS``, each default left to
``AdversarySpec``; a node file is ``_node_header`` then q rows of A symbols.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field as dfield
from operator import itemgetter

from . import hmbr, hmsr
from .errors import HrgcError, InvalidParams
from .hmsr import HelpSymbolBatch, NodeState, Report
from .linalg import solve_square, transpose
from .matrices import (
    CODES,
    CodeProfile,
    profile_digest,
    profile_from_text,
    profile_to_text,
)


def _op_rng(adversary, op_counter):
    return random.Random(adversary.seed * 1_000_003 + op_counter)


STRATEGIES = ("random", "offset", "layer", "consistent_pair")
POLICIES = ("escalate", "report")
MODES = ("plain", "detect", "recover")


@dataclass(frozen=True)
class AdversarySpec:
    """Which nodes lie, and how.

    strategy: "random" (uniform resample), "offset" (add the constant
    ``offset``), "layer" (random nonzero offsets in layer ``layer`` only), or
    "consistent_pair" (detect/recover repair: two liars that know the
    stacked encoding rows craft errors the extra helper's check cannot see;
    reconstruct refuses it).
    offset, layer: given exactly when the strategy of the same name is used.
    activation: per-(layer, block) probability of perturbing, in [0, 1].
    Node ids, ``offset`` and ``layer`` are checked against the cluster when
    it is used.

    What each mode guarantees against them: in detect, one liar always
    alarms in a repair (no detect window's left null vector has a zero
    entry) and alarmed at every block-0 entry of every reconstruction plan
    with at most one failed node on the q=3 and q=4 test profiles
    (tests/test_hmsr.py); two omniscient colluders can pass detect, in a
    repair and in a reconstruction alike.  Recover is exact within
    sigma + 2 tau <= q^2 - k_l in a reconstruction and <= q^2 - 1 - d_l in
    a repair (sigma erased or flagged nodes, tau liars; a repair also fails
    when sigma alone passes its layer's erasure budget).
    """
    nodes: frozenset
    strategy: str = "random"
    activation: float = 1.0
    seed: int = 0
    offset: int | None = None
    layer: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidParams(f"unknown adversary strategy {self.strategy!r}; "
                                f"expected one of {', '.join(STRATEGIES)}")
        for key in ("offset", "layer"):
            given = getattr(self, key) is not None
            if self.strategy == key and not given:
                raise InvalidParams(f"strategy={key} needs {key}=...")
            if given and self.strategy != key:
                raise InvalidParams(f"{key}= is read only by strategy={key}, "
                                    f"not {self.strategy}")
        if not 0.0 <= self.activation <= 1.0:
            raise InvalidParams(f"activation {self.activation} outside [0, 1]")


_SPEC_PARSERS = {
    "nodes": lambda v: frozenset(int(g) for g in v.split(",") if g),
    "strategy": str, "activation": float, "seed": int, "offset": int,
    "layer": int,
}


def parse_adversary(text: str) -> AdversarySpec:
    """Parse "nodes=2,5;strategy=random;seed=7;activation=1.0;...": each
    given key through its parser, every other field left to AdversarySpec."""
    kv = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        kv[key.strip()] = val.strip()
    if "nodes" not in kv:
        raise InvalidParams("adversary spec needs nodes=...")
    unknown = sorted(set(kv) - set(_SPEC_PARSERS))
    if unknown:
        raise InvalidParams(f"unknown adversary spec keys {unknown}")
    try:
        return AdversarySpec(**{k: _SPEC_PARSERS[k](v) for k, v in kv.items()})
    except ValueError as exc:
        raise InvalidParams(f"bad adversary spec {text!r}: {exc}") from None


def _check_node(profile, g, what="node"):
    if not 0 <= g < profile.n_nodes:
        raise InvalidParams(f"{what} {g} outside [0, {profile.n_nodes - 1}]")


def _check_adversary(profile, spec):
    if spec is None:
        return
    for g in sorted(spec.nodes):
        _check_node(profile, g, "adversary node")
    if spec.layer is not None and not 0 <= spec.layer < profile.q:
        raise InvalidParams(f"adversary layer {spec.layer} outside "
                            f"[0, {profile.q - 1}]")
    order = profile.field.order
    if spec.offset is not None and not 1 <= spec.offset < order:
        raise InvalidParams(f"adversary offset {spec.offset} outside "
                            f"[1, {order - 1}]")


@dataclass
class ExchangeLog:
    meta: dict = dfield(default_factory=dict)
    records: list = dfield(default_factory=list)  # (phase, requester, responder, level, symbols per layer)

    def add(self, phase, requester, responder, level, symbols):
        self.records.append((phase, requester, responder, level, symbols))

    def per_layer(self, phase=None):
        """Symbols downloaded per layer, over one phase or all of them."""
        sent = [r[4] for r in self.records if phase is None or r[0] == phase]
        return [sum(col) for col in zip(*sent)]

    def total_symbols(self, phase=None):
        return sum(self.per_layer(phase))


class Cluster:
    def __init__(self, profile: CodeProfile, nodes, truth_message=None,
                 truth_nodes=None, directory=None):
        self.profile = profile
        self.nodes = list(nodes)              # NodeState | None per slot
        self.truth_message = truth_message
        self.truth_nodes = truth_nodes        # node id -> original Y
        self.known_corrupt = set()
        self.directory = directory
        self.op_counter = 0

    def live_ids(self):
        return [g for g, ns in enumerate(self.nodes) if ns is not None]


def cluster_init(profile: CodeProfile, message, retain_truth=True,
                 directory=None) -> Cluster:
    if profile.mode == "msr":
        nodes = hmsr.encode(hmsr.arrange_st(message, profile), profile)
    else:
        nodes = hmbr.encode_mbr(hmbr.arrange_m(message, profile), profile)
    cluster = Cluster(
        profile, nodes,
        truth_message=list(message) if retain_truth else None,
        truth_nodes={n.node_id: [row[:] for row in n.y] for n in nodes}
        if retain_truth else None,
        directory=directory,
    )
    if directory:
        save_cluster(cluster, directory)
    return cluster


def fail_node(cluster: Cluster, z: int):
    _check_node(cluster.profile, z)
    if cluster.nodes[z] is None:
        raise InvalidParams(f"node {z} already failed")
    cluster.nodes[z] = None
    if cluster.directory:
        _write_manifest(cluster, profile_digest(cluster.profile))


# -- adversary machinery --------------------------------------------------------


def _activated(rng, spec, l):
    if spec.strategy == "layer" and l != spec.layer:
        return False
    return spec.activation >= 1.0 or rng.random() < spec.activation


def _perturb_symbol(F, rng, spec, value):
    if spec.strategy == "offset":
        return F.add(value, spec.offset)
    if spec.strategy == "layer":
        return F.add(value, rng.randrange(1, F.order))
    return rng.randrange(F.order)


def _corrupt_batches(profile, batches, spec, rng):
    """Perturb the liars' outgoing copies: each activated repair symbol
    (l, t), or every symbol of an activated reconstruction block (l, t)."""
    F = profile.field
    out = []
    for b in batches:
        if spec is None or b.helper_id not in spec.nodes:
            out.append(b)
        elif b.rows is None:
            symbols = dict(b.symbols)
            for (l, t) in sorted(symbols):
                if _activated(rng, spec, l):
                    symbols[(l, t)] = _perturb_symbol(F, rng, spec, symbols[(l, t)])
            out.append(HelpSymbolBatch(b.helper_id, b.level, symbols=symbols))
        else:
            rows = {l: bytearray(row) for l, row in b.rows.items()}
            for l in sorted(rows):
                a = profile.alpha[l]
                for t in range(profile.blocks(l)):
                    if _activated(rng, spec, l):
                        for c in range(t * a, (t + 1) * a):
                            rows[l][c] = _perturb_symbol(F, rng, spec, rows[l][c])
            out.append(HelpSymbolBatch(b.helper_id, b.level, rows=rows))
    return out


def _apply_consistent_pair(cluster, z, batches, spec, rng):
    """Craft errors that keep the d+1 detect symbols consistent (needs the
    stacked encoding rows of the other helpers)."""
    profile = cluster.profile
    F = profile.field
    by_id = {b.helper_id: HelpSymbolBatch(b.helper_id, b.level, dict(b.symbols))
             for b in batches}
    windows = hmsr.request_counts(profile, "repair", "detect", len(batches))
    for l in range(profile.q):
        ids = [b.helper_id
               for b in hmsr._contributors(by_id.values(), l)[:windows[l]]]
        corrupt_pos = [i for i, g in enumerate(ids) if g in spec.nodes]
        if len(corrupt_pos) < 2:
            continue
        row = profile.nu_row if profile.mode == "msr" else profile.mu_row
        basis = [row(g, l) for g in ids[1:]]
        zeta = solve_square(F, transpose(basis), row(ids[0], l))
        coeff = [1] + [F.neg(x) for x in zeta]
        p1, p2 = corrupt_pos[0], corrupt_pos[1]
        if not coeff[p1] or not coeff[p2]:
            continue
        for t in range(profile.blocks(l)):
            e1 = rng.randrange(1, F.order)
            e2 = F.div(F.neg(F.mul(coeff[p1], e1)), coeff[p2])
            b1, b2 = by_id[ids[p1]], by_id[ids[p2]]
            b1.symbols[(l, t)] = F.add(b1.symbols[(l, t)], e1)
            b2.symbols[(l, t)] = F.add(b2.symbols[(l, t)], e2)
    return list(by_id.values())


# -- operations -------------------------------------------------------------------


def _gather(cluster, log, phase, plan, adversary, rng, z=None):
    """One request round: each planned (node, level) responds, the log
    records the symbols its response carries per layer, and the adversary
    perturbs the outgoing copies.  z is the repair target, None asks for
    rows."""
    profile = cluster.profile
    batches = []
    for g, level in plan:
        if z is None:
            b = hmsr.recon_response(cluster.nodes[g], profile, level)
            carried = {l: len(row) for l, row in b.rows.items()}
        else:
            b = hmsr.helper_response(cluster.nodes[g], profile, level, z)
            carried = Counter(map(itemgetter(0), b.symbols))
        log.add(phase, "dc" if z is None else z, g, level,
                tuple(carried.get(l, 0) for l in range(profile.q)))
        batches.append(b)
    if adversary and adversary.strategy == "consistent_pair":
        return _apply_consistent_pair(cluster, z, batches, adversary, rng)
    return _corrupt_batches(profile, batches, adversary, rng)


def _flagged_alarm(cluster, mode, plan, report):
    """A detect result that passed its check but used a flagged helper is an
    alarm: two colluders can pass the one-row check
    (test_consistent_pair_passes_detect_reconstruct), so it cannot clear a
    node already caught lying."""
    if mode != "detect" or not report.ok:
        return report
    flagged = sorted(cluster.known_corrupt.intersection(g for g, _ in plan))
    if not flagged:
        return report
    return Report(mode=mode, ok=False, alarm={"flagged": flagged})


def _entry(profile, op, mode):
    """The engine entry point for (code, op, mode), looked up by name at
    each call, so a rebound module attribute is the one that runs."""
    name = "regenerate" if op == "repair" else "reconstruct"
    if profile.mode == "msr":
        return getattr(hmsr, f"{name}_{mode}")
    return getattr(hmbr, f"{name}_mbr_{mode}")


def _operate(cluster, op, mode, adversary, policy, z=None):
    """Run one repair (z the failed node) or reconstruction (z None): each
    round asks the staged plan of ``hmsr.staged_request_plan`` and runs the
    engine on the answers.  An alarm under the escalate policy, or recover
    mode, runs the recover round, which decodes with the known corrupt nodes
    erased."""
    if mode not in MODES:
        raise InvalidParams(f"unknown {op} mode {mode!r}")
    if policy not in POLICIES:
        raise InvalidParams(f"unknown {op} policy {policy!r}; expected one "
                            f"of {', '.join(POLICIES)}")
    profile = cluster.profile
    cluster.op_counter += 1
    rng = _op_rng(adversary, cluster.op_counter) if adversary else None
    log = ExchangeLog(meta={"op": op, "mode": mode})
    if z is not None:
        log.meta["target"] = z
    target = () if z is None else (z,)

    def run(phase, **kw):
        plan = hmsr.staged_request_plan(profile, op, phase, cluster.live_ids())
        batches = _gather(cluster, log, phase, plan, adversary, rng, z)
        report = _entry(profile, op, phase)(*target, batches, profile, **kw)
        return _flagged_alarm(cluster, phase, plan, report)

    if mode != "recover":
        report = run(mode)
        if report.alarm and policy == "escalate":
            log.meta["alarm"] = report.alarm
            log.meta["escalated"] = True
            mode = "recover"
    if mode == "recover":
        report = run("recover", prior_flags=frozenset(cluster.known_corrupt))
    cluster.known_corrupt |= set(report.corrupted)
    return report, log


def repair(cluster: Cluster, z: int, mode: str, adversary: AdversarySpec = None,
           policy: str = "escalate"):
    """Repair failed node z.  Returns (Report, ExchangeLog)."""
    profile = cluster.profile
    _check_node(profile, z)
    _check_adversary(profile, adversary)
    if cluster.nodes[z] is not None:
        raise InvalidParams(f"node {z} is not failed")
    if (mode == "plain" and adversary
            and adversary.strategy == "consistent_pair"):
        raise InvalidParams("strategy consistent_pair needs detect or recover "
                            "mode: it crafts errors against the extra helper")
    report, log = _operate(cluster, "repair", mode, adversary, policy, z)
    if report.ok:
        cluster.nodes[z] = NodeState(node_id=z, y=report.y)
        if cluster.directory:
            header = _node_header(profile)
            save_node(cluster.directory, cluster.nodes[z], header)
            _write_manifest(cluster, header["digest"])
    return report, log


def reconstruct(cluster: Cluster, mode: str, adversary: AdversarySpec = None,
                policy: str = "escalate"):
    """Reconstruct the stored file.  Returns (Report, ExchangeLog)."""
    _check_adversary(cluster.profile, adversary)
    if adversary and adversary.strategy == "consistent_pair":
        raise InvalidParams("strategy consistent_pair is a repair-only "
                            "strategy: it crafts errors against the extra "
                            "repair helper")
    report, log = _operate(cluster, "reconstruct", mode, adversary, policy)
    if cluster.truth_message is not None and report.ok:
        log.meta["matches_truth"] = report.message == cluster.truth_message
    return report, log


# -- bandwidth accounting ---------------------------------------------------------


def bandwidth_audit(log: ExchangeLog, profile: CodeProfile) -> dict:
    """Check a log against the protocol: per phase and layer, the symbols
    the responses carried against ``hmsr.request_counts`` times what one
    helper sends for the layer (A/alpha_l symbols in a repair, A in a
    reconstruction).  A recover round's live count is its responders."""
    op = log.meta.get("op")
    out = {"op": op, "phases": {}, "ok": True}
    for phase in sorted({r[0] for r in log.records}):
        n_live = len({r[2] for r in log.records if r[0] == phase})
        counts = hmsr.request_counts(profile, op, phase, n_live)
        per_layer = {}
        for l, actual in enumerate(log.per_layer(phase)):
            unit = profile.blocks(l) if op == "repair" else profile.A
            per_layer[l] = {"actual": actual, "expected": counts[l] * unit}
            if actual != per_layer[l]["expected"]:
                out["ok"] = False
        out["phases"][phase] = {
            "per_layer": per_layer,
            "total_actual": log.total_symbols(phase),
            "total_expected": sum(v["expected"] for v in per_layer.values()),
        }
    return out


# -- persistence -------------------------------------------------------------------


def node_filename(g: int) -> str:
    return f"node_{g:03d}.bin"


def save_node(directory, state: NodeState, header):
    data = encode_node_bytes(state, header)
    with open(os.path.join(directory, node_filename(state.node_id)), "wb") as fh:
        fh.write(data)


def _node_header(profile: CodeProfile):
    """The node file header, field name -> bytes in file order.  The profile
    fixes every field but "id", which holds node 0 here; "mode" is the
    code's index in CODES.  Every node-file function takes it, so a call that
    writes or reads many node files builds it once."""
    return {"magic": b"HRGC",
            "version": b"\x01",
            "mode": bytes([CODES.index(profile.mode)]),
            "q": profile.q.to_bytes(2, "little"),
            "id": bytes(2),
            "m": profile.m.to_bytes(4, "little"),
            "alpha": bytes(profile.alpha),
            "k": bytes(profile.k),
            "digest": profile_digest(profile)}


def encode_node_bytes(state: NodeState, header) -> bytes:
    header = {**header, "id": state.node_id.to_bytes(2, "little")}
    return b"".join([*header.values(), *map(bytes, state.y)])


def decode_node_bytes(data: bytes, profile: CodeProfile, header) -> NodeState:
    A, off = profile.A, 0
    size = sum(map(len, header.values())) + profile.q * A
    if len(data) < size:
        raise HrgcError(f"node file truncated: {len(data)} bytes, the profile "
                        f"needs {size}")
    for name, want in header.items():
        got, off = data[off:off + len(want)], off + len(want)
        if name == "id":
            node_id = int.from_bytes(got, "little")
        elif got != want:
            raise HrgcError(f"node file {name} does not match the profile")
    if len(data) > size:
        raise HrgcError("node file payload longer than the profile's")
    if max(data[off:]) >= profile.field.order:
        raise HrgcError(f"node file payload holds a symbol outside "
                        f"GF({profile.field.order})")
    return NodeState(node_id=node_id,
                     y=[list(data[r:r + A]) for r in range(off, size, A)])


def load_node(path, profile: CodeProfile, header) -> NodeState:
    with open(path, "rb") as fh:
        return decode_node_bytes(fh.read(), profile, header)


def _write_manifest(cluster: Cluster, digest: bytes):
    lines = [f"digest={digest.hex()}"]
    for g in range(cluster.profile.n_nodes):
        status = "live" if cluster.nodes[g] is not None else "failed"
        lines.append(f"node_{g:03d}={node_filename(g)},{status}")
    path = os.path.join(cluster.directory, "manifest.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_cluster(cluster: Cluster, directory):
    os.makedirs(directory, exist_ok=True)
    cluster.directory = directory
    with open(os.path.join(directory, "profile.txt"), "w") as fh:
        fh.write(profile_to_text(cluster.profile))
    header = _node_header(cluster.profile)
    for state in cluster.nodes:
        if state is not None:
            save_node(directory, state, header)
    _write_manifest(cluster, header["digest"])


def load_cluster(directory) -> Cluster:
    with open(os.path.join(directory, "profile.txt")) as fh:
        profile = profile_from_text(fh.read())
    nodes = [None] * profile.n_nodes
    manifest = {}
    with open(os.path.join(directory, "manifest.txt")) as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            manifest[key] = val
    header = _node_header(profile)
    if manifest.get("digest") != header["digest"].hex():
        raise HrgcError("manifest digest does not match the profile")
    for g in range(profile.n_nodes):
        key = f"node_{g:03d}"
        if key not in manifest:
            raise HrgcError(f"manifest has no {key} line")
        fname, _, status = manifest[key].partition(",")
        if status not in ("live", "failed"):
            raise HrgcError(f"manifest {key} has unknown status {status!r}")
        if status == "live":
            nodes[g] = load_node(os.path.join(directory, fname), profile,
                                 header)
            if nodes[g].node_id != g:
                raise HrgcError(f"node file {fname} has id {nodes[g].node_id}")
    cluster = Cluster(profile, nodes, directory=directory)
    return cluster
