import hashlib
import random
import time
from functools import reduce

import pytest

import outcome_digest
from conftest import random_message, repair_batches
from hrgc import hmsr, sim
from hrgc.errors import (
    HrgcError,
    InvalidParams,
    LengthMismatch,
)
from hrgc.linalg import solve_square, transpose
from hrgc.matrices import profile_digest


def make_cluster(profile, seed, directory=None):
    return sim.cluster_init(profile, random_message(profile, seed),
                            directory=directory)


def test_cluster_init_shapes(q3_msr, q4_msr):
    c3 = make_cluster(q3_msr, 1)
    assert len(c3.nodes) == 9
    assert all(len(n.y) == 3 and len(n.y[0]) == 6 for n in c3.nodes)
    c4 = make_cluster(q4_msr, 1)
    assert len(c4.nodes) == 16
    assert all(len(n.y) == 4 and len(n.y[0]) == 60 for n in c4.nodes)


def test_cluster_init_length_check(q3_msr):
    with pytest.raises(LengthMismatch):
        sim.cluster_init(q3_msr, [0] * 53)


def test_repair_plain_restores_bytes(q3_msr):
    cluster = make_cluster(q3_msr, 2)
    original = [row[:] for row in cluster.nodes[5].y]
    sim.fail_node(cluster, 5)
    report, log = sim.repair(cluster, 5, "plain")
    assert report.ok
    assert cluster.nodes[5].y == original
    assert log.meta["op"] == "repair"


def test_repair_requires_failed_node(q3_msr):
    cluster = make_cluster(q3_msr, 3)
    with pytest.raises(InvalidParams):
        sim.repair(cluster, 0, "plain")


def test_detect_escalates_to_recovery(q4_msr):
    cluster = make_cluster(q4_msr, 4)
    truth = [row[:] for row in cluster.nodes[3].y]
    sim.fail_node(cluster, 3)
    adversary = sim.AdversarySpec(nodes=frozenset({2, 5}), seed=11)
    report, log = sim.repair(cluster, 3, "detect", adversary)
    assert log.meta.get("escalated")
    assert report.mode == "recover"
    assert report.ok
    assert cluster.nodes[3].y == truth
    assert set(report.corrupted) == {2, 5}
    assert cluster.known_corrupt >= {2, 5}


def test_overwhelming_adversary_never_silent(q3_msr):
    # budget floor((9 - 2 - 1)/2) = 3; four same-layer attackers must yield
    # an explicit failure or a correct repair, never silent corruption
    for seed in range(6):
        cluster = make_cluster(q3_msr, 50 + seed)
        truth = [row[:] for row in cluster.nodes[0].y]
        sim.fail_node(cluster, 0)
        evil = frozenset(random.Random(seed).sample(range(1, 9), 4))
        adversary = sim.AdversarySpec(nodes=evil, strategy="layer", layer=2,
                                      seed=seed)
        report, _ = sim.repair(cluster, 0, "recover", adversary)
        if report.ok:
            assert cluster.nodes[0].y == truth
        else:
            assert report.failure is not None
            assert cluster.nodes[0] is None


def test_reconstruct_plain_and_detect_exact(q3_msr, q3_mbr):
    for profile in (q3_msr, q3_mbr):
        cluster = make_cluster(profile, 6)
        for mode in ("plain", "detect"):
            report, log = sim.reconstruct(cluster, mode)
            assert report.ok
            assert report.message == cluster.truth_message
            assert log.meta["matches_truth"]


def test_reconstruct_detect_escalation(q4_mbr):
    cluster = make_cluster(q4_mbr, 7)
    adversary = sim.AdversarySpec(nodes=frozenset({1}), seed=21)
    report, log = sim.reconstruct(cluster, "detect", adversary)
    assert log.meta.get("escalated")
    assert report.ok and report.message == cluster.truth_message
    assert report.corrupted == frozenset({1})


def test_adversary_containment(q3_msr):
    cluster = make_cluster(q3_msr, 8)
    before = {g: [row[:] for row in cluster.nodes[g].y] for g in range(9)}
    adversary = sim.AdversarySpec(nodes=frozenset({2, 3}), seed=5)
    sim.reconstruct(cluster, "recover", adversary)
    sim.fail_node(cluster, 7)
    sim.repair(cluster, 7, "recover", adversary)
    for g in range(9):
        assert cluster.nodes[g].y == before[g]


def test_determinism(q3_msr):
    results = []
    for _ in range(2):
        cluster = make_cluster(q3_msr, 9)
        sim.fail_node(cluster, 2)
        adversary = sim.AdversarySpec(nodes=frozenset({4}), seed=13)
        rep1, log1 = sim.repair(cluster, 2, "detect", adversary)
        rep2, log2 = sim.reconstruct(cluster, "detect", adversary)
        results.append((rep1.mode, rep1.ok, sorted(rep1.corrupted),
                        rep2.ok, rep2.message, log1.records, log2.records))
    assert results[0] == results[1]


def test_bandwidth_audit_msr_plain(q4_msr):
    cluster = make_cluster(q4_msr, 10)
    sim.fail_node(cluster, 6)
    _, log = sim.repair(cluster, 6, "plain")
    audit = sim.bandwidth_audit(log, q4_msr)
    assert audit["ok"]
    per_layer = audit["phases"]["plain"]["per_layer"]
    for l in range(4):
        # d_l * (A / alpha_l) = 2A = 120 per layer
        assert per_layer[l]["actual"] == 120
    assert audit["phases"]["plain"]["total_actual"] == 480


def test_bandwidth_audit_mbr_plain(q4_mbr):
    cluster = make_cluster(q4_mbr, 11)
    sim.fail_node(cluster, 6)
    _, log = sim.repair(cluster, 6, "plain")
    audit = sim.bandwidth_audit(log, q4_mbr)
    assert audit["ok"]
    per_layer = audit["phases"]["plain"]["per_layer"]
    for l in range(4):
        assert per_layer[l]["actual"] == 60     # alpha_l * (A/alpha_l) = A
    assert audit["phases"]["plain"]["total_actual"] == 240


def test_bandwidth_audit_reconstruct(q4_msr):
    cluster = make_cluster(q4_msr, 30)
    _, log = sim.reconstruct(cluster, "plain")
    audit = sim.bandwidth_audit(log, q4_msr)
    assert audit["ok"]
    per_layer = audit["phases"]["plain"]["per_layer"]
    for l in range(4):
        assert per_layer[l]["actual"] == q4_msr.k[l] * q4_msr.A
    _, dlog = sim.reconstruct(cluster, "detect")
    daudit = sim.bandwidth_audit(dlog, q4_msr)
    assert daudit["ok"]
    for l in range(4):
        assert (daudit["phases"]["detect"]["per_layer"][l]["actual"]
                == (q4_msr.k[l] + 1) * q4_msr.A)


def test_bandwidth_audit_detect_increment(q4_msr):
    cluster = make_cluster(q4_msr, 12)
    sim.fail_node(cluster, 1)
    _, plain_log = sim.repair(cluster, 1, "plain")
    sim.fail_node(cluster, 2)
    _, detect_log = sim.repair(cluster, 2, "detect")
    plain_total = plain_log.total_symbols("plain")
    detect_total = detect_log.total_symbols("detect")
    extra = sum(q4_msr.A // a for a in q4_msr.alpha)
    assert detect_total == plain_total + extra


def test_bandwidth_audit_counts_the_symbols_sent(q3_msr, monkeypatch):
    # each helper sends one symbol past the protocol; the solve ignores it,
    # but the log records what the responses carried and the audit fails
    honest = hmsr.helper_response

    def chatty(state, profile, level, target):
        batch = honest(state, profile, level, target)
        batch.symbols[(level, profile.blocks(level))] = 0
        return batch

    monkeypatch.setattr(hmsr, "helper_response", chatty)
    cluster = make_cluster(q3_msr, 14)
    truth = [row[:] for row in cluster.nodes[4].y]
    sim.fail_node(cluster, 4)
    report, log = sim.repair(cluster, 4, "plain")
    assert report.ok and cluster.nodes[4].y == truth
    audit = sim.bandwidth_audit(log, q3_msr)
    assert audit["ok"] is False
    plain = audit["phases"]["plain"]
    assert plain["total_actual"] == plain["total_expected"] + q3_msr.d[0]
    # the extra symbols are counted in the layers that carried them
    assert any(row["actual"] != row["expected"]
               for row in plain["per_layer"].values())


@pytest.mark.parametrize("name", ["q3_msr", "q4_msr", "q3_mbr", "q4_mbr"])
def test_bandwidth_audit_recover_with_a_failed_node(name, request):
    # with node 4 failed, a recover round asks the q^2 - 1 live nodes; the
    # audit expects exactly those, for recover and escalated reconstruction
    profile = request.getfixturevalue(name)
    q2 = profile.n_nodes
    cluster = make_cluster(profile, 22)
    sim.fail_node(cluster, 4)
    liar = sim.AdversarySpec(nodes=frozenset({1}), seed=6)
    for mode, adversary in (("recover", None), ("detect", liar)):
        report, log = sim.reconstruct(cluster, mode, adversary)
        assert report.ok and report.message == cluster.truth_message
        assert report.mode == "recover"
        assert bool(log.meta.get("escalated")) == (mode == "detect")
        audit = sim.bandwidth_audit(log, profile)
        assert audit["ok"]
        for l, row in audit["phases"]["recover"]["per_layer"].items():
            assert row["actual"] == row["expected"] == (q2 - 1) * profile.A
    cluster = make_cluster(profile, 23)
    sim.fail_node(cluster, 4)
    report, log = sim.repair(cluster, 4, "recover")
    assert report.ok and cluster.nodes[4].y == cluster.truth_nodes[4]
    audit = sim.bandwidth_audit(log, profile)
    assert audit["ok"]
    for l, row in audit["phases"]["recover"]["per_layer"].items():
        assert row["actual"] == row["expected"] == (q2 - 1) * profile.blocks(l)
    # with a second node failed, a recover repair asks the q^2 - 2 live
    # nodes and erases the missing one
    sim.fail_node(cluster, 4)
    sim.fail_node(cluster, 7)
    report, log = sim.repair(cluster, 4, "recover")
    assert report.ok and cluster.nodes[4].y == cluster.truth_nodes[4]
    audit = sim.bandwidth_audit(log, profile)
    assert audit["ok"]
    for l, row in audit["phases"]["recover"]["per_layer"].items():
        assert row["actual"] == row["expected"] == (q2 - 2) * profile.blocks(l)


def test_node_file_round_trip(q3_msr, tmp_path):
    cluster = make_cluster(q3_msr, 13, directory=str(tmp_path))
    data = (tmp_path / sim.node_filename(4)).read_bytes()
    assert data[:4] == b"HRGC"
    assert data[4] == 1
    assert data[5] == 0                                # msr
    assert int.from_bytes(data[6:8], "little") == 3    # q
    assert int.from_bytes(data[8:10], "little") == 4   # node id
    assert int.from_bytes(data[10:14], "little") == 8  # m
    assert tuple(data[14:17]) == (3, 2, 1)
    assert tuple(data[17:20]) == (4, 3, 2)
    assert data[20:28] == profile_digest(q3_msr)
    assert len(data) == 28 + 3 * 6
    state = sim.load_node(str(tmp_path / sim.node_filename(4)), q3_msr,
                          sim._node_header(q3_msr))
    assert state.node_id == 4
    assert state.y == cluster.nodes[4].y


def test_cluster_persistence_round_trip(q3_mbr, tmp_path):
    cluster = make_cluster(q3_mbr, 14, directory=str(tmp_path))
    sim.fail_node(cluster, 3)
    loaded = sim.load_cluster(str(tmp_path))
    assert loaded.profile.lam == q3_mbr.lam
    assert loaded.nodes[3] is None
    for g in range(9):
        if g != 3:
            assert loaded.nodes[g].y == cluster.nodes[g].y
    report, _ = sim.repair(loaded, 3, "plain")
    assert report.ok
    reloaded = sim.load_cluster(str(tmp_path))
    assert reloaded.nodes[3].y == report.y


def test_parse_adversary():
    spec = sim.parse_adversary("nodes=2,5;strategy=offset;seed=7;offset=3")
    assert spec.nodes == frozenset({2, 5})
    assert spec.strategy == "offset"
    assert spec.seed == 7 and spec.offset == 3 and spec.layer is None
    # every key left out takes the AdversarySpec default
    assert sim.parse_adversary("nodes=3") == sim.AdversarySpec(
        nodes=frozenset({3}))
    with pytest.raises(InvalidParams):
        sim.parse_adversary("strategy=random")


def test_omniscient_collusion_defeats_detection(q3_msr):
    # two colluding helpers that know every encoding row can craft errors the
    # two-window comparison cannot see: repair finishes with no alarm and a
    # wrong result -- the reason row secrecy matters
    cluster = make_cluster(q3_msr, 15)
    truth = [row[:] for row in cluster.nodes[0].y]
    sim.fail_node(cluster, 0)
    adversary = sim.AdversarySpec(
        nodes=frozenset({1, 2}), strategy="consistent_pair", seed=17,
    )
    report, log = sim.repair(cluster, 0, "detect", adversary)
    assert report.ok
    assert "alarm" not in log.meta
    assert cluster.nodes[0].y != truth


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr", "q3_mbr",
                                       "q4_mbr"])
def test_consistent_pair_weights_solve_the_window(prof_name, request):
    """The consistent pair's weights zeta, the Lagrange weights of a detect
    repair window's other helpers at its first helper's x-value, solve the
    window's encoding rows (nu for MSR, mu for MBR): over every target and
    layer they equal the ``solve_square`` solution and have no zero entry.
    The pair that ``sim`` crafts from them, the first and last helper of
    layer 0's window, leaves every layer-0 block consistent under the
    solved weights and changes both helpers' symbols."""
    profile = request.getfixturevalue(prof_name)
    F = profile.field
    row = profile.nu_row if profile.mode == "msr" else profile.mu_row
    cluster = make_cluster(profile, 23)
    for z in range(profile.n_nodes):
        batches = repair_batches(profile, cluster.nodes, z, "detect")
        for l, d in enumerate(profile.d):
            ids = [b.helper_id for b in hmsr._contributors(batches, l)][:d + 1]
            xs = [profile.x_value(g) for g in ids[1:]]
            zeta, = hmsr._lagrange_weights(F, xs, hmsr._deltas(F, xs),
                                           [profile.x_value(ids[0])])
            solved = solve_square(F, transpose([row(g, l) for g in ids[1:]]),
                                  row(ids[0], l))
            assert zeta == solved and all(zeta), (z, l)
            if l == 0:
                window, coeff = ids, [1] + [F.neg(c) for c in solved]
        spec = sim.AdversarySpec(nodes=frozenset({window[0], window[-1]}),
                                 strategy="consistent_pair", seed=3)
        crafted = {b.helper_id: b.symbols for b in sim._apply_consistent_pair(
            cluster, z, batches, spec, random.Random(z))}
        honest = {b.helper_id: b.symbols for b in batches}
        for t in range(profile.blocks(0)):
            key = (0, t)
            assert reduce(F.add, [F.mul(c, crafted[g][key])
                                  for c, g in zip(coeff, window)]) == 0, (z, t)
            assert all(crafted[g][key] != honest[g][key]
                       for g in spec.nodes), (z, t)


def _tallies(*rows):
    return {l: {"erasures": e, "errors": x} for l, e, x in rows}


_ONE = _tallies((2, 0, 1), (1, 1, 0), (0, 1, 0))
_ONE_L1 = _tallies((2, 0, 0), (1, 0, 1), (0, 1, 0))
_TWO = _tallies((2, 0, 2), (1, 2, 0), (0, 2, 0))
_NONE_L2 = _tallies((2, 0, 0))

# (code, op, liars, layer for the "layer" strategy, detect-mode alarm,
#  recover-mode failure text, corrupted, tallies).  The liars hold the lowest
# ids, which the staged plans ask first, so detect mode always meets a lie.
PINNED = [
    ("msr", "repair", {1}, None, (0, 0), None, {1}, _ONE),
    ("msr", "repair", {2}, 1, (1, 0), None, {2}, _ONE_L1),
    ("msr", "repair", {1, 2}, None, (0, 0), None, {1, 2}, _TWO),
    ("msr", "repair", {1, 2, 3, 4}, None, (0, 0),
     "erasure count 4 exceeds layer-1 budget 3", {1, 2, 3, 4},
     _tallies((2, 0, 4), (1, 4, 0))),
    ("msr", "reconstruct", {1}, None, (0, 0), None, {1}, _ONE),
    ("msr", "reconstruct", {2}, 1, (1, 0), None, {2}, _ONE_L1),
    ("msr", "reconstruct", {1, 2}, None, (0, 0), None, {1, 2}, _TWO),
    ("msr", "reconstruct", {1, 2, 3, 4, 5, 6}, None, (0, 0),
     "layer 2 block 0: only 0 trustworthy columns for dimension 1", set(),
     _NONE_L2),
    ("mbr", "repair", {1}, None, (0, 1), None, {1}, _ONE),
    ("mbr", "repair", {2}, 1, (1, 0), None, {2}, _ONE_L1),
    ("mbr", "repair", {1, 2}, None, (0, 0), None, {1, 2}, _TWO),
    ("mbr", "repair", {1, 2, 3, 4}, None, (0, 0),
     "layer 2 block 0: interpolation found no nonzero error locator", set(),
     _NONE_L2),
    ("mbr", "reconstruct", {1}, None, (0, 0), None, {1}, _ONE),
    ("mbr", "reconstruct", {2}, 1, (1, 0), None, {2}, _ONE_L1),
    ("mbr", "reconstruct", {1, 2}, None, (0, 0), None, {1, 2}, _TWO),
    ("mbr", "reconstruct", {1, 2, 3, 4, 5}, None, (0, 0),
     "layer 2 block 0: error locator does not divide the interpolant", set(),
     _NONE_L2),
]


@pytest.mark.parametrize(
    "code,op,liars,layer,alarm,failure,corrupted,tallies", PINNED)
def test_pinned_alarms_and_tallies(code, op, liars, layer, alarm, failure,
                                   corrupted, tallies, request):
    profile = request.getfixturevalue(f"q3_{code}")
    adversary = sim.AdversarySpec(
        nodes=frozenset(liars), strategy="random" if layer is None else "layer",
        layer=layer, seed=5)
    for mode in ("detect", "recover"):
        cluster = make_cluster(profile, 1)
        if op == "repair":
            truth = [row[:] for row in cluster.nodes[0].y]
            sim.fail_node(cluster, 0)
            report, _ = sim.repair(cluster, 0, mode, adversary, policy="report")
            exact = report.ok and report.y == truth
        else:
            report, _ = sim.reconstruct(cluster, mode, adversary, policy="report")
            exact = report.ok and report.message == cluster.truth_message
        if mode == "detect":
            assert not report.ok and report.failure is None
            assert report.alarm == {"layer": alarm[0], "block": alarm[1]}
            assert report.tallies == {} and report.corrupted == frozenset()
            continue
        assert report.alarm is None
        assert report.failure == failure
        assert exact == (failure is None)
        assert report.corrupted == frozenset(corrupted)
        assert report.tallies == tallies


@pytest.mark.parametrize("text", [
    "nodes=1;strategy=bogus",
    "nodes=1;strategy=collusive_random",
    "nodes=1;knowledge=godlike",
    "nodes=1;strategy=layer",
    "nodes=1;activation=1.5",
    "nodes=1;activation=-0.1",
    "nodes=1;activation=nan",
    "nodes=x",
    "nodes=1;seed=abc",
    "nodes=1;layer=one;strategy=layer",
    "nodes=1;activaton=0.5",
])
def test_parse_adversary_rejects_bad_specs(text):
    with pytest.raises(InvalidParams):
        sim.parse_adversary(text)


def test_parse_adversary_accepts_bench_specs():
    for text in ("nodes=0,3;strategy=random;seed=9;activation=0.5",
                 "nodes=2;strategy=offset;seed=1;activation=1.0;offset=3",
                 "nodes=1,4;strategy=layer;seed=2;activation=0.5;layer=2"):
        assert sim.parse_adversary(text).nodes


# (spec text, AdversarySpec keywords, refusal): offset= and layer= are
# given exactly when the strategy of the same name reads them
UNREAD_OR_MISSING = [
    ("nodes=1;strategy=random;offset=99;layer=7",
     dict(strategy="random", offset=99, layer=7),
     "offset= is read only by strategy=offset, not random"),
    ("nodes=1;offset=3", dict(offset=3),
     "offset= is read only by strategy=offset, not random"),
    ("nodes=1;layer=0", dict(layer=0),
     "layer= is read only by strategy=layer, not random"),
    ("nodes=1;strategy=layer;layer=1;offset=3",
     dict(strategy="layer", layer=1, offset=3),
     "offset= is read only by strategy=offset, not layer"),
    ("nodes=1;strategy=offset;offset=2;layer=0",
     dict(strategy="offset", offset=2, layer=0),
     "layer= is read only by strategy=layer, not offset"),
    ("nodes=1,2;strategy=consistent_pair;offset=1",
     dict(strategy="consistent_pair", offset=1),
     "offset= is read only by strategy=offset, not consistent_pair"),
    ("nodes=1;strategy=offset", dict(strategy="offset"),
     "strategy=offset needs offset="),
    ("nodes=1;strategy=layer", dict(strategy="layer"),
     "strategy=layer needs layer="),
]


@pytest.mark.parametrize("text, kwargs, refusal", UNREAD_OR_MISSING)
def test_offset_and_layer_go_with_their_strategy(q3_msr, text, kwargs,
                                                 refusal):
    cluster = make_cluster(q3_msr, 23)
    sim.fail_node(cluster, 0)
    with pytest.raises(InvalidParams, match=refusal):
        sim.reconstruct(cluster, "detect", sim.parse_adversary(text))
    with pytest.raises(InvalidParams, match=refusal):
        sim.repair(cluster, 0, "recover",
                   sim.AdversarySpec(nodes=frozenset({1}), **kwargs))
    assert cluster.op_counter == 0 and cluster.nodes[0] is None


def test_node_ids_are_range_checked(q3_msr):
    cluster = make_cluster(q3_msr, 16)
    for g in (9, 99, -1):
        with pytest.raises(InvalidParams):
            sim.fail_node(cluster, g)
        with pytest.raises(InvalidParams):
            sim.repair(cluster, g, "plain")
    assert cluster.live_ids() == list(range(9))
    sim.fail_node(cluster, 0)
    outside = sim.AdversarySpec(nodes=frozenset({1, 40}))
    wrong_layer = sim.AdversarySpec(nodes=frozenset({1}), strategy="layer",
                                    layer=3)
    for adversary in (outside, wrong_layer):
        with pytest.raises(InvalidParams):
            sim.repair(cluster, 0, "recover", adversary)
        with pytest.raises(InvalidParams):
            sim.reconstruct(cluster, "recover", adversary)
    assert cluster.op_counter == 0 and cluster.nodes[0] is None


@pytest.mark.parametrize("code", ["msr", "mbr"])
def test_consistent_pair_needs_detect_or_recover(code, request):
    profile = request.getfixturevalue(f"q3_{code}")
    cluster = make_cluster(profile, 17)
    sim.fail_node(cluster, 0)
    adversary = sim.AdversarySpec(nodes=frozenset({1, 2}),
                                  strategy="consistent_pair", seed=3)
    with pytest.raises(InvalidParams, match="detect or recover"):
        sim.repair(cluster, 0, "plain", adversary)
    report, _ = sim.repair(cluster, 0, "recover", adversary)
    assert report.ok or report.failure is not None


@pytest.mark.parametrize("mode", ["plain", "detect", "recover"])
def test_consistent_pair_refused_on_reconstruct(q3_mbr, mode):
    cluster = make_cluster(q3_mbr, 18)
    adversary = sim.AdversarySpec(nodes=frozenset({1, 2}),
                                  strategy="consistent_pair", seed=3)
    with pytest.raises(InvalidParams, match="repair-only"):
        sim.reconstruct(cluster, mode, adversary)
    assert cluster.op_counter == 0


def test_truncated_node_file_is_named(q3_msr, tmp_path):
    make_cluster(q3_msr, 19, directory=str(tmp_path))
    data = (tmp_path / sim.node_filename(4)).read_bytes()
    header = sim._node_header(q3_msr)
    for cut in (4, 12, 27, len(data) - 1):
        with pytest.raises(HrgcError, match="truncated"):
            sim.decode_node_bytes(data[:cut], q3_msr, header)
    with pytest.raises(HrgcError, match="longer"):
        sim.decode_node_bytes(data + b"\0", q3_msr, header)


# q=3 node file header: magic 0-3, version 4, mode 5, q 6-7, id 8-9, m 10-13,
# alpha 14-16, k 17-19, profile digest 20-27; the version and digest cases
# keep ids that name the corruption, since their texts are the uniform one
@pytest.mark.parametrize("pos, value, message", [
    pytest.param(4, 2, "node file version does not match the profile",
                 id="4-2-unsupported node file version 2"),
    (5, 7, "mode does not match"),
    (6, 4, "q does not match"),
    (10, 9, "m does not match"),
    (14, 4, "alpha does not match"),
    (17, 3, "k does not match"),
    pytest.param(20, None, "node file digest does not match the profile",
                 id="20-None-profile digest mismatch"),
])
def test_corrupt_node_header_field_is_named(q3_mbr, tmp_path, pos, value,
                                            message):
    make_cluster(q3_mbr, 19, directory=str(tmp_path))
    data = bytearray((tmp_path / sim.node_filename(4)).read_bytes())
    data[pos] = data[pos] ^ 1 if value is None else value
    with pytest.raises(HrgcError, match=message):
        sim.decode_node_bytes(bytes(data), q3_mbr, sim._node_header(q3_mbr))


# sha256 of encode_node_bytes(node 0) under random_message(profile, 0): the
# header above, then the q x A payload row by row
NODE_BYTES_SHA256 = {
    "q3_msr": "bff497fce56466bfbc04399e1dd8b8e0915eda0d9dd6a7f7d6e1f558cf5e8f41",
    "q4_msr": "7744f0e219cd644bbf831c53515f23d9d4b9c25de017a356f00330acce69ae77",
    "q3_mbr": "f0b5ca5308c2489712d7e48bdc6a1ac737a4b3846b61f5386c9bab36793e5695",
    "q4_mbr": "b5dde9e558d7d6ae9ce61441721806b4be2aba69ed802f7b0143b9883b7895dc",
}


@pytest.mark.parametrize("name", sorted(NODE_BYTES_SHA256))
def test_node_bytes_pinned(name, request):
    profile = request.getfixturevalue(name)
    node = make_cluster(profile, 0).nodes[0]
    header = sim._node_header(profile)
    data = sim.encode_node_bytes(node, header)
    assert hashlib.sha256(data).hexdigest() == NODE_BYTES_SHA256[name]
    assert sim.decode_node_bytes(data, profile, header) == node


def test_detect_repair_with_two_failed_nodes_is_exact(q3_msr):
    # with nodes 3 and 2 failed, node 2's detect helpers at layer 0 are 0,
    # 1, 4..8; the repair window 0, 1, 4..7 is Lagrange over distinct
    # x-values, so detect checks helper 8 against it and the repair is exact
    cluster = make_cluster(q3_msr, 12)
    truth = [row[:] for row in cluster.nodes[2].y]
    sim.fail_node(cluster, 3)
    sim.fail_node(cluster, 2)
    report, _ = sim.repair(cluster, 2, "detect")
    assert report.ok and cluster.nodes[2].y == truth


def test_q5_recover_repair_names_five_liars_in_every_layer(q5_msr):
    # every help symbol of five liars is resampled: each layer's blocks are
    # Reed-Solomon words of f = a + lambda_l b, decoded by Welch-Berlekamp
    # (about 20 ms here; the support search on the nu rows took seconds)
    adversary = sim.parse_adversary("nodes=1,4,9,16,23;seed=5")
    cluster = make_cluster(q5_msr, 31)
    sim.fail_node(cluster, 12)
    t0 = time.perf_counter()
    report, _ = sim.repair(cluster, 12, "recover", adversary)
    seconds = time.perf_counter() - t0
    assert report.ok and cluster.nodes[12].y == cluster.truth_nodes[12]
    assert report.corrupted == {1, 4, 9, 16, 23}
    assert report.tallies[q5_msr.q - 1]["errors"] == 5
    assert seconds < 1.0


def test_detect_does_not_certify_a_flagged_helper(q4_msr):
    # the one-row check cannot clear a node already caught lying: nodes 3
    # and 4 are flagged but answer honestly here, so every check passes,
    # and a detect result that used them alarms all the same
    cluster = make_cluster(q4_msr, 5)
    truth = [row[:] for row in cluster.nodes[10].y]
    sim.fail_node(cluster, 10)
    cluster.known_corrupt |= {3, 4}
    report, log = sim.repair(cluster, 10, "detect", policy="report")
    assert not report.ok and report.y is None
    assert report.alarm == {"flagged": [3, 4]}
    assert cluster.nodes[10] is None
    report, log = sim.repair(cluster, 10, "detect")
    assert log.meta["alarm"] == {"flagged": [3, 4]} and log.meta["escalated"]
    assert report.mode == "recover" and report.ok
    assert cluster.nodes[10].y == truth

    report, _ = sim.reconstruct(cluster, "detect", policy="report")
    assert not report.ok and report.alarm == {"flagged": [3, 4]}
    report, _ = sim.reconstruct(cluster, "plain")
    assert report.ok and report.message == cluster.truth_message


@pytest.mark.parametrize("code", ["msr", "mbr"])
def test_unknown_mode_names_the_operation(code, request):
    profile = request.getfixturevalue(f"q3_{code}")
    cluster = make_cluster(profile, 20)
    with pytest.raises(InvalidParams, match="unknown reconstruct mode 'fast'"):
        sim.reconstruct(cluster, "fast")
    sim.fail_node(cluster, 4)
    with pytest.raises(InvalidParams, match="unknown repair mode 'fast'"):
        sim.repair(cluster, 4, "fast")
    # a refused call leaves the counter, so later adversary draws stay put
    assert cluster.nodes[4] is None and cluster.op_counter == 0


@pytest.mark.parametrize("code", ["msr", "mbr"])
def test_unknown_policy_is_refused(code, request):
    profile = request.getfixturevalue(f"q3_{code}")
    cluster = make_cluster(profile, 20)
    with pytest.raises(InvalidParams,
                       match="unknown reconstruct policy 'escalte'"):
        sim.reconstruct(cluster, "detect", policy="escalte")
    sim.fail_node(cluster, 4)
    with pytest.raises(InvalidParams, match="unknown repair policy 'escalte'"):
        sim.repair(cluster, 4, "detect", policy="escalte")
    assert cluster.nodes[4] is None and cluster.op_counter == 0


@pytest.mark.parametrize("offset", [0, -1, 9, 16])
def test_offset_adversary_is_checked_against_the_field(q3_msr, offset):
    # GF(9): an offset must be a nonzero field element, 1..8
    cluster = make_cluster(q3_msr, 22)
    sim.fail_node(cluster, 0)
    adversary = sim.AdversarySpec(nodes=frozenset({1}), strategy="offset",
                                  offset=offset)
    refused = rf"adversary offset {offset} outside \[1, 8\]"
    with pytest.raises(InvalidParams, match=refused):
        sim.repair(cluster, 0, "recover", adversary)
    with pytest.raises(InvalidParams, match=refused):
        sim.reconstruct(cluster, "detect", adversary)
    assert cluster.op_counter == 0 and cluster.nodes[0] is None
    report, _ = sim.repair(cluster, 0, "recover",
                           sim.AdversarySpec(nodes=frozenset({1}),
                                             strategy="offset", offset=8))
    assert report.ok and report.corrupted == {1}


@pytest.mark.parametrize("code", ["msr", "mbr"])
def test_recover_repair_erases_a_second_failed_node(code, request):
    profile = request.getfixturevalue(f"q4_{code}")
    cluster = make_cluster(profile, 21)
    truth = [row[:] for row in cluster.nodes[6].y]
    sim.fail_node(cluster, 6)
    sim.fail_node(cluster, 11)
    report, _ = sim.repair(cluster, 6, "recover")
    assert report.ok and report.corrupted == frozenset()
    assert cluster.nodes[6].y == truth
    sim.fail_node(cluster, 6)
    adversary = sim.AdversarySpec(nodes=frozenset({2}), seed=4)
    report, log = sim.repair(cluster, 6, "detect", adversary, policy="report")
    assert report.alarm and not report.ok and "escalated" not in log.meta
    assert cluster.nodes[6] is None
    # an escalated detect repair erases node 11 as well
    report, log = sim.repair(cluster, 6, "detect", adversary)
    assert report.ok and log.meta["escalated"] and report.corrupted == {2}
    assert cluster.nodes[6].y == truth
    sim.fail_node(cluster, 6)
    report, _ = sim.repair(cluster, 6, "plain")
    assert report.ok and cluster.nodes[6].y == truth


def test_outcome_digest_pin():
    """One trial per profile and adversary of ``tests/outcome_digest.py``:
    490 records of sim outcomes (reports, logs, flagged nodes, errors).  A
    change that keeps behaviour keeps this pin; a change meant to alter
    outcomes updates it and lists the records that changed in CHANGES.md."""
    assert outcome_digest.digest(1) == (
        490, "2d1802deb7c94798bea72f1571cdb416e9b71d40e4def7a1e62b9cc0b356b736")
