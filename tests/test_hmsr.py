import importlib.util
import random
import sys
from array import array
from pathlib import Path

import pytest

from conftest import (
    block,
    corrupt_recon,
    corrupt_repair,
    encode_profile,
    random_message,
    recon_batches,
    reference_blocks,
    reference_message,
    repair_batches,
)
from hrgc import decoder, hmbr, hmsr, sim
from hrgc.errors import (
    AsymmetryDetected,
    DecodeFailure,
    HrgcError,
    LengthMismatch,
    NotEnoughHelpers,
    SingularSystem,
)
from hrgc.curve import encode_column
from hrgc.decoder import ERASED, _poly_divmod, decode
from hrgc.linalg import (det_nonzero, left_null_space, mat_inv, mat_mul,
                         mat_vec, solve_square, transpose, vec_mat)


def test_arrange_shapes_q3(q3_msr):
    msg = random_message(q3_msr, 1)
    st = hmsr.arrange_st(msg, q3_msr)
    # A/alpha_0 = 6/3 blocks of 3 x 3 side by side
    assert [len(r) for r in st.s[0]] == [6] * 3
    # layer-0 block holds alpha(alpha+1)/2 = 6 distinct symbols
    S = block(st, q3_msr, 0, 0)[0]
    assert sorted({msg[i] for i in range(6)}) == sorted(
        {S[i][j] for i in range(3) for j in range(i, 3)}
    )
    for l in range(q3_msr.q):
        for t in range(q3_msr.blocks(l)):
            for M in block(st, q3_msr, l, t):
                assert M == [list(r) for r in zip(*M)]  # symmetric


def test_arrange_zero_and_length(q3_msr):
    st = hmsr.arrange_st([0] * 54, q3_msr)
    assert all(v == 0 for M in st.s + st.t_ for r in M for v in r)
    with pytest.raises(LengthMismatch):
        hmsr.arrange_st([0] * 55, q3_msr)


def test_arrange_round_trip(q4_msr):
    msg = random_message(q4_msr, 2)
    st = hmsr.arrange_st(msg, q4_msr)
    assert hmsr._message(q4_msr, list(zip(st.s, st.t_))) == msg


@pytest.mark.parametrize(
    "prof_name", ["q3_msr", "q4_msr", "q3_mbr", "q4_mbr", "q5_msr", "q5_mbr"])
def test_layout_table_is_the_symbol_by_symbol_layout(prof_name, request,
                                                    monkeypatch):
    """The layer matrices that the index table arranges are the reference
    layout's blocks side by side, and reading them back gives the message.
    A recover reconstruct with two liars, whose layers come back in several
    pieces, is exact.  Both tables are array('I')."""
    profile = request.getfixturevalue(prof_name)
    msr = profile.mode == "msr"
    message = random_message(profile, 81)
    m = (hmsr.arrange_st if msr else hmbr.arrange_m)(message, profile)
    s, t_ = reference_blocks(message, profile)
    assert reference_message(s, t_, profile) == message
    for l in range(profile.q):
        for M, blocks in ((m.s[l], s[l]), (m.t_[l], t_[l])):
            assert M == [sum(rows, []) for rows in zip(*blocks)], l
    assert hmsr._message(profile, list(zip(m.s, m.t_))) == message

    pieces = []
    side_by_side = hmsr._side_by_side

    def spy(layer_pieces):
        pieces.append(len(layer_pieces))
        return side_by_side(layer_pieces)

    monkeypatch.setattr(hmsr, "_side_by_side", spy)
    liars = set(random.Random(prof_name).sample(range(profile.k[0]), 2))
    batches = corrupt_recon(
        recon_batches(profile, encode_profile(profile, message), "recover"),
        liars, profile.field.order, 82)
    rep = (hmsr.reconstruct_recover if msr
           else hmbr.reconstruct_mbr_recover)(batches, profile)
    assert rep.ok and rep.message == message and rep.corrupted == liars
    assert max(pieces) > 1

    forward, inverse = profile.layout
    assert all(isinstance(r, array) and r.typecode == "I"
               for mats in forward for M in mats for r in M)
    assert isinstance(inverse, array) and inverse.typecode == "I"


def test_encode_zero(q3_msr):
    nodes = encode_profile(q3_msr, [0] * q3_msr.B)
    assert all(all(v == 0 for row in n.y for v in row) for n in nodes)


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr"])
def test_encode_layer_identity(prof_name, request):
    """Every node/layer/block satisfies tilde = mu S + lam mu T (the
    decode-pipeline oracle, evaluated directly from the message)."""
    profile = request.getfixturevalue(prof_name)
    F = profile.field
    msg = random_message(profile, 3)
    st = hmsr.arrange_st(msg, profile)
    nodes = encode_profile(profile, msg)
    for g in range(profile.n_nodes):
        tilde = [list(r) for r in
                 hmsr.tilde_rows(profile, nodes[g], profile.q - 1)]
        for l in range(profile.q):
            a = profile.alpha[l]
            mu = profile.mu_row(g, l)
            for t in range(profile.blocks(l)):
                blk = tilde[l][t * a:(t + 1) * a]
                S, T = block(st, profile, l, t)
                ms = vec_mat(F, mu, S)
                mt = vec_mat(F, mu, T)
                assert blk == [
                    F.add(ms[c], F.mul(profile.lam[l][g], mt[c])) for c in range(a)
                ]


def test_encode_t_zero_is_lambda_independent(q3_msr):
    import dataclasses
    other = dataclasses.replace(
        q3_msr, lam_poly=((1, 2, 0, 1), (2, 1, 1), (1, 1)))
    assert all(a != b for a, b in zip(other.lam, q3_msr.lam))
    msg = random_message(q3_msr, 4)
    msg = msg[:27] + [0] * 27           # T half zeroed
    n1 = encode_profile(q3_msr, msg)
    n2 = encode_profile(other, msg)
    assert all(n1[g].y == n2[g].y for g in range(9))


def test_helper_response_counts(q3_msr):
    msg = random_message(q3_msr, 5)
    nodes = encode_profile(q3_msr, msg)
    batch = hmsr.helper_response(nodes[1], q3_msr, 0, 0)
    assert len(batch.symbols) == q3_msr.blocks(0)          # one layer
    batch = hmsr.helper_response(nodes[1], q3_msr, 2, 0)
    assert len(batch.symbols) == sum(q3_msr.blocks(l) for l in range(3))
    zero_nodes = encode_profile(q3_msr, [0] * 54)
    batch = hmsr.helper_response(zero_nodes[1], q3_msr, 2, 0)
    assert set(batch.symbols.values()) == {0}


@pytest.mark.parametrize(
    "prof_name", ["q3_msr", "q4_msr", "q5_msr", "q3_mbr", "q4_mbr", "q5_mbr"])
def test_help_symbols_equal_the_per_block_reference(prof_name, request):
    """For every node, level and target, the help symbols are mu_z times
    each block's slice of the list rows B_g^-1 Y_g, and the reconstruction
    rows are those rows as bytes.  The fixtures cover odd p and char 2,
    rows narrower than the bytes kernel's lanes (q=3) and wider ones."""
    profile = request.getfixturevalue(prof_name)
    F, n, q = profile.field, profile.n_nodes, profile.q
    nodes = encode_profile(profile, random_message(profile, 31))
    mu_cols = [transpose([profile.mu_row(z, l) for z in range(n)])
               for l in range(q)]
    for g in range(n):
        ref = mat_mul(F, profile.points.basis_inv(g), nodes[g].y)
        # want[l][t][z]: mu_z times block t's slice of row l
        want = [mat_mul(F, [ref[l][t * a:(t + 1) * a]
                            for t in range(profile.blocks(l))], mu_cols[l])
                for l, a in enumerate(profile.alpha)]
        for level in range(q):
            rows = hmsr.recon_response(nodes[g], profile, level).rows
            assert rows == dict(enumerate(map(bytes, ref[:level + 1]))), (
                g, level)
            assert all(type(r) is bytes for r in rows.values())
            for z in range(n):
                if z == g:
                    continue
                symbols = hmsr.helper_response(nodes[g], profile, level,
                                               z).symbols
                assert symbols == {(l, t): want[l][t][z]
                                   for l in range(level + 1)
                                   for t in range(profile.blocks(l))}, (
                    g, level, z)
                assert all(type(v) is int for v in symbols.values())


def test_first_difference_of_prefixes_and_mixed_containers():
    """The first differing index, the shorter length for a proper prefix,
    and None for the same symbols in a list and in bytes; so a mixed
    symmetric matrix is no asymmetric block."""
    first = hmsr._first_difference
    assert first([1, 2], [1, 2, 3]) == 2
    assert first([1, 2, 3], [1, 2]) == 2
    assert first([], [5]) == 0
    assert first([4, 2], [1, 2]) == 0
    assert first(b"\x01\x02", [1, 2]) is None
    assert first(b"\x01\x02", [1, 3]) == 1
    assert first(b"\x01\x02", [1, 2, 0]) == 2
    assert first([], b"") is None
    # two 2 x 2 blocks side by side, row 0 in bytes, row 1 a list
    assert hmsr._asymmetric_block([b"\x00\x01\x00\x02", [1, 0, 2, 0]]) is None
    assert hmsr._asymmetric_block([b"\x00\x01\x00\x02", [1, 0, 3, 0]]) == 1


def test_staged_plan_q4_totals(q4_msr):
    live = list(range(1, 16))
    plan = hmsr.staged_request_plan(q4_msr, "repair", "plain", live)
    per_level = {}
    for _, j in plan:
        per_level[j] = per_level.get(j, 0) + 1
    assert per_level == {3: 6, 2: 2, 1: 2, 0: 2}
    # layer-l contributor counts telescope to d_l
    for l in range(4):
        assert sum(1 for _, j in plan if j >= l) == q4_msr.d[l]
    detect = hmsr.staged_request_plan(q4_msr, "repair", "detect", live)
    assert len(detect) == len(plan) + 1
    for l in range(4):
        assert sum(1 for _, j in detect if j >= l) == q4_msr.d[l] + 1
    recon = hmsr.staged_request_plan(q4_msr, "reconstruct", "detect", live)
    for l in range(4):
        assert sum(1 for _, j in recon if j >= l) == q4_msr.k[l] + 1


def test_staged_plan_not_enough_helpers(q3_msr):
    with pytest.raises(NotEnoughHelpers, match="need 6 live helpers, have 5"):
        hmsr.staged_request_plan(q3_msr, "repair", "plain", [0, 1, 2, 3, 4])


def test_staged_plan_recover(q4_msr):
    live = [g for g in range(16) if g != 6]
    plan = hmsr.staged_request_plan(q4_msr, "repair", "recover", live)
    assert plan == [(g, 3) for g in live]
    # a second failed node is one more erasure, not a refusal
    fewer = [g for g in live if g != 11]
    plan = hmsr.staged_request_plan(q4_msr, "repair", "recover", fewer)
    assert plan == [(g, 3) for g in fewer]
    # a recover reconstruction asks every live node
    plan = hmsr.staged_request_plan(q4_msr, "reconstruct", "recover", live)
    assert plan == [(g, 3) for g in live]
    assert hmsr.request_counts(q4_msr, "reconstruct", "recover", 15) == [15] * 4


def _lowest_ids_plan(profile, op, mode, live):
    counts = hmsr.request_counts(profile, op, mode, len(live))
    helpers, above = iter(sorted(live)), counts[1:] + [0]
    return [(next(helpers), j) for j in range(profile.q - 1, -1, -1)
            for _ in range(counts[j] - above[j])]


def test_reconstruct_plan_passes_over_nodes_that_share_lambda(q4_msr):
    # each layer's first counts[l] helpers (its window of k_l, and in
    # detect the extra responder) hold distinct lambda_l in every plan with
    # at most two failed nodes: with at most one the lowest live ids already
    # do, and 25 two-failure detect plans pass over a node that would share
    # one (failed 0 and 2: node 6 shares lambda_3 with node 1, so node 7
    # answers at level 3 instead); with three, when too few nodes remain for
    # that, only the windows of k_l keep distinct lambda_l, and every window
    # of all 1120 failure sets is then regular
    from itertools import combinations
    p = q4_msr
    colliding = passed_over = 0
    for nf in (0, 1, 2, 3):
        for failed in combinations(range(16), nf):
            live = [g for g in range(16) if g not in failed]
            for mode in ("plain", "detect"):
                plan = hmsr.staged_request_plan(p, "reconstruct", mode, live)
                lowest = _lowest_ids_plan(p, "reconstruct", mode, live)
                if nf <= 2:
                    passed_over += plan != lowest
                    assert plan == lowest or (nf, mode) == (2, "detect")
                assert [j for _, j in plan] == [j for _, j in lowest]
                served = [sorted(g for g, j in plan if j >= l)
                          for l in range(p.q)]
                counts = hmsr.request_counts(p, "reconstruct", mode,
                                             len(live))
                for sizes in (p.k, counts):
                    shared = any(len({p.lam[l][g] for g in ids[:sizes[l]]})
                                 < sizes[l] for l, ids in enumerate(served))
                    if sizes is p.k:
                        colliding += shared
                    elif nf <= 2:
                        assert not shared, (failed, mode)
    assert colliding == 0 and passed_over == 25
    assert hmsr.staged_request_plan(
        p, "reconstruct", "detect", [1, *range(3, 16)]) == [
            (1, 3), (3, 3), (4, 3), (5, 3), (7, 3), (8, 2), (9, 1), (10, 0)]
    message = random_message(p, 5)
    for mode in ("plain", "detect"):
        cluster = sim.cluster_init(p, message)
        for g in (2, 3, 4):        # the lowest ids put 1 and 6 in one window
            sim.fail_node(cluster, g)
        report, _ = sim.reconstruct(cluster, mode)
        assert report.ok and report.message == message


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr"])
def test_regenerate_plain_round_trip_every_node(prof_name, request):
    profile = request.getfixturevalue(prof_name)
    msg = random_message(profile, 6)
    nodes = encode_profile(profile, msg)
    for z in range(profile.n_nodes):
        batches = repair_batches(profile, nodes, z, "plain")
        rep = hmsr.regenerate_plain(z, batches, profile)
        assert rep.ok and rep.y == nodes[z].y


def test_regenerate_plain_zero_file(q3_msr):
    nodes = encode_profile(q3_msr, [0] * 54)
    batches = repair_batches(q3_msr, nodes, 3, "plain")
    rep = hmsr.regenerate_plain(3, batches, q3_msr)
    assert all(v == 0 for row in rep.y for v in row)


def test_regenerate_plain_silent_on_bogus_symbol(q3_msr):
    # documented plain-mode hazard: one bogus symbol corrupts without alarm
    msg = random_message(q3_msr, 7)
    nodes = encode_profile(q3_msr, msg)
    batches = repair_batches(q3_msr, nodes, 0, "plain")
    bad = corrupt_repair(batches, {batches[0].helper_id}, 9, seed=8,
                         layers={0})
    rep = hmsr.regenerate_plain(0, bad, q3_msr)
    assert rep.ok
    assert rep.y != nodes[0].y


def test_regenerate_detect_matches_plain_on_honest_input(q3_msr):
    msg = random_message(q3_msr, 9)
    nodes = encode_profile(q3_msr, msg)
    for z in (0, 4, 8):
        batches = repair_batches(q3_msr, nodes, z, "detect")
        rep = hmsr.regenerate_detect(z, batches, q3_msr)
        plain = hmsr.regenerate_plain(
            z, repair_batches(q3_msr, nodes, z, "plain"), q3_msr
        )
        assert rep.ok and rep.y == plain.y == nodes[z].y


def test_regenerate_detect_alarm_and_rate(q3_msr):
    msg = random_message(q3_msr, 10)
    nodes = encode_profile(q3_msr, msg)
    z = 2
    batches = repair_batches(q3_msr, nodes, z, "detect")
    helpers = [b.helper_id for b in batches]
    detected = 0
    trials = 300
    for i in range(trials):
        evil = helpers[i % len(helpers)]
        bad = corrupt_repair(batches, {evil}, 9, seed=1000 + i)
        rep = hmsr.regenerate_detect(z, bad, q3_msr)
        if not rep.ok:
            assert rep.alarm is not None
            detected += 1
    assert detected / trials >= 1 - 1 / 9


def test_regenerate_recover_round_trip(q3_msr):
    msg = random_message(q3_msr, 11)
    nodes = encode_profile(q3_msr, msg)
    z = 5
    batches = repair_batches(q3_msr, nodes, z, "recover")
    for tau in (1, 2):
        helpers = [b.helper_id for b in batches]
        evil = set(helpers[1:1 + tau])
        bad = corrupt_repair(batches, evil, 9, seed=40 + tau)
        rep = hmsr.regenerate_recover(z, bad, q3_msr)
        assert rep.ok and rep.y == nodes[z].y
        assert rep.corrupted == frozenset(evil)


def test_regenerate_recover_never_silent_beyond_budget(q3_msr):
    # with all-layer adversaries the final layer-0 erasure budget is
    # q^2 - d_0 - 1 = 2; three corrupt nodes must end in an explicit failure
    # or a correct answer, never silent corruption
    msg = random_message(q3_msr, 12)
    nodes = encode_profile(q3_msr, msg)
    z = 1
    batches = repair_batches(q3_msr, nodes, z, "recover")
    helpers = [b.helper_id for b in batches]
    for seed in range(10):
        evil = set(random.Random(seed).sample(helpers, 3))
        bad = corrupt_repair(batches, evil, 9, seed=900 + seed)
        rep = hmsr.regenerate_recover(z, bad, q3_msr)
        if rep.ok:
            assert rep.y == nodes[z].y
        else:
            assert rep.failure is not None


def test_repair_idempotence(q3_msr):
    # a regenerated node serves as a helper exactly like the original
    msg = random_message(q3_msr, 13)
    nodes = encode_profile(q3_msr, msg)
    z1, z2 = 3, 7
    rep = hmsr.regenerate_plain(
        z1, repair_batches(q3_msr, nodes, z1, "plain"), q3_msr
    )
    rebuilt = list(nodes)
    rebuilt[z1] = hmsr.NodeState(node_id=z1, y=rep.y)
    a = hmsr.regenerate_plain(
        z2, repair_batches(q3_msr, nodes, z2, "plain"), q3_msr
    )
    b = hmsr.regenerate_plain(
        z2, repair_batches(q3_msr, rebuilt, z2, "plain"), q3_msr
    )
    assert a.y == b.y == nodes[z2].y


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr"])
def test_reconstruct_plain_round_trip(prof_name, request):
    profile = request.getfixturevalue(prof_name)
    for seed in range(3):
        msg = random_message(profile, 100 + seed)
        nodes = encode_profile(profile, msg)
        rec = hmsr.reconstruct_plain(
            recon_batches(profile, nodes, "plain"), profile
        )
        assert rec.ok and rec.message == msg


def test_reconstruct_detect_honest_and_alarm(q3_msr):
    msg = random_message(q3_msr, 14)
    nodes = encode_profile(q3_msr, msg)
    batches = recon_batches(q3_msr, nodes, "detect")
    rec = hmsr.reconstruct_detect(batches, q3_msr)
    assert rec.ok and rec.message == msg

    responders = [b.helper_id for b in batches]
    alarms = 0
    trials = 120
    for i in range(trials):
        evil = responders[i % len(responders)]
        bad = corrupt_recon(batches, {evil}, 9, seed=70 + i)
        rec = hmsr.reconstruct_detect(bad, q3_msr)
        if not rec.ok:
            assert rec.alarm is not None
            alarms += 1
    assert alarms / trials >= 1 - 1 / 9


def _window_st(R, ids, l, profile):
    """``hmsr.extract_st`` through the window of layer l and responders ids,
    on the rows R as bytes; the blocks come back as int lists."""
    S, T = hmsr.extract_st([bytes(r) for r in R],
                           hmsr.ExtractContext(profile, l, ids))
    return [list(r) for r in S], [list(r) for r in T]


def _window_m(F, mu_rows, k, R):
    """``hmbr._extract_m`` with the Omega^-1 of the rows ``mu_rows``, on
    the rows R as bytes; the blocks come back as int lists."""
    S, T, asym = hmbr._extract_m(F, mu_rows, k, [bytes(r) for r in R],
                                 mat_inv(F, [row[:k] for row in mu_rows]))
    return [list(r) for r in S], [list(r) for r in T], asym


def test_extract_st_identity_pattern(q3_msr):
    # S = identity-patterned symmetric block, T = 0: extraction is exact
    p = q3_msr
    F = p.field
    l = 0
    ids = [0, 2, 5, 7]
    S = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    T = [[0] * 3 for _ in range(3)]
    R = []
    for g in ids:
        mu = p.mu_row(g, l)
        ms = vec_mat(F, mu, S)
        R.append([F.add(ms[c], F.mul(p.lam[l][g], 0)) for c in range(3)])
    S2, T2 = _window_st(R, ids, l, p)
    assert S2 == S and T2 == T


def test_extract_st_random_round_trip_all_layers(q3_msr):
    p = q3_msr
    F = p.field
    rng = random.Random(15)
    for l in range(3):
        a = p.alpha[l]
        ids = [0] * (a + 1)
        while len({p.lam[l][g] for g in ids}) <= a:   # a window of distinct lambda_l
            ids = sorted(rng.sample(range(9), a + 1))
        S = [[0] * a for _ in range(a)]
        T = [[0] * a for _ in range(a)]
        for i in range(a):
            for j in range(i, a):
                S[i][j] = S[j][i] = rng.randrange(9)
                T[i][j] = T[j][i] = rng.randrange(9)
        R = []
        for g in ids:
            mu = p.mu_row(g, l)
            ms = vec_mat(F, mu, S)
            mt = vec_mat(F, mu, T)
            R.append([F.add(ms[c], F.mul(p.lam[l][g], mt[c])) for c in range(a)])
        S2, T2 = _window_st(R, ids, l, p)
        assert (S2, T2) == (S, T)


def test_extract_st_corruption_never_returns_truth(q3_msr):
    # a k_l-response stack carries exactly as many symbols as a symmetric
    # (S, T) pair, so any corruption resolves to a *different* valid pair;
    # catching it is the dual-extraction comparison's job (detect mode)
    p = q3_msr
    msg = random_message(p, 16)
    st = hmsr.arrange_st(msg, p)
    nodes = encode_profile(p, msg)
    batches = recon_batches(p, nodes, "plain")
    l = 0
    resp = sorted((b for b in batches if b.level >= l),
                  key=lambda b: b.helper_id)[: p.k[l]]
    ids = [b.helper_id for b in resp]
    R = [b.rows[l][:p.alpha[l]] for b in resp]
    for target_row in range(len(R)):
        for delta in range(1, 9):
            bad = [list(r) for r in R]
            bad[target_row][0] = p.field.add(bad[target_row][0], delta)
            assert _window_st(bad, ids, l, p) != block(st, p, 0, 0)


def test_extract_st_random_rows_extract_symmetric_blocks(q3_msr, q4_msr, q5_msr):
    """A regular alpha_l + 1 window maps symmetric (S, T) pairs one to one
    onto its alpha_l (alpha_l + 1) response symbols, so rows of random
    symbols extract symmetric blocks that reproduce the rows."""
    rng = random.Random(23)
    for p in (q3_msr, q4_msr, q5_msr):
        F, n = p.field, p.n_nodes
        regular = 0
        for l in range(p.q):
            a = p.alpha[l]
            for _ in range(12):
                ids = sorted(rng.sample(range(n), a + 1))
                try:
                    ctx = hmsr.ExtractContext(p, l, ids)
                except SingularSystem:
                    continue
                regular += 1
                R = [[rng.randrange(F.order) for _ in range(3 * a)] for _ in ids]
                S, T = hmsr.extract_st([bytes(r) for r in R], ctx)
                assert hmsr._asymmetric_block(S) is None, (p.q, l, ids)
                assert hmsr._asymmetric_block(T) is None, (p.q, l, ids)
                assert mat_mul(F, [p.nu_row(g, l) for g in ids], S + T) == R
        assert regular >= 3 * p.q


def _square_system_st(p, l, ids, R):
    """The symmetric (S, T), blocks side by side, that ``solve_square``
    returns for the alpha_l (alpha_l + 1) equations of the window: unknowns
    the upper triangles of S and T, equation (i, c) that entry c of node
    ids[i]'s response mu_i S + lambda_l mu_i T is entry c of R[i]."""
    F, a = p.field, p.alpha[l]
    upper = [(u, v) for u in range(a) for v in range(u, a)]
    A, b = [], []
    for i, g in enumerate(ids):
        mu, lam = p.mu_row(g, l), p.lam[l][g]
        for c in range(a):
            # S_rc for every r is the unknown (min(r, c), max(r, c))
            row = [mu[u if v == c else v] if c in (u, v) else 0
                   for u, v in upper]
            A.append(row + F.scale(lam, row))
            b.append(R[i][c::a])
    x = solve_square(F, A, b)
    out = []
    for half in (x[:len(upper)], x[len(upper):]):
        M = [[None] * a for _ in range(a)]
        for (u, v), vals in zip(upper, half):
            M[u][v] = M[v][u] = vals
        out.append([hmsr._interleave(row) for row in M])
    return tuple(out)


def test_extract_st_equals_the_square_system_solution(q3_msr, q4_msr, q5_msr):
    """The diagonal-completed extraction returns, block by block, the one
    symmetric (S, T) that eliminating the square alpha_l (alpha_l + 1)
    system of the window returns, for random rows at every layer."""
    rng = random.Random(41)
    for p in (q3_msr, q4_msr, q5_msr):
        F, n = p.field, p.n_nodes
        for l in range(p.q):
            a, solved = p.alpha[l], 0
            while solved < 3:
                ids = sorted(rng.sample(range(n), a + 1))
                try:
                    ctx = hmsr.ExtractContext(p, l, ids)
                except SingularSystem:
                    continue
                R = [[rng.randrange(F.order) for _ in range(4 * a)]
                     for _ in ids]
                assert hmsr.extract_st([bytes(r) for r in R], ctx) == (
                    _square_system_st(p, l, ids, R)), (p.q, l, ids)
                solved += 1


def test_diagonal_weights_are_the_lagrange_weights(q3_msr, q4_msr, q5_msr):
    """-delta_i / delta_j is the weight on p(x_j) of p(x_i), for p of degree
    below alpha_l known at the window's other alpha_l x-values: the
    Lagrange basis polynomial of x_j, prod_{m != i, j} (x_i - x_m) /
    (x_j - x_m), at x_i."""
    rng = random.Random(42)
    for p in (q3_msr, q4_msr, q5_msr):
        F = p.field
        for l in range(p.q):
            a = p.alpha[l]
            ids = hmsr._window_ids(rng.sample(range(p.n_nodes), p.n_nodes),
                                   a + 1, p.lam[l])
            xs = [p.x_value(g) for g in ids]
            ctx = hmsr.ExtractContext(p, l, ids)
            for i in range(a):
                others = [j for j in range(a + 1) if j != i]
                want = []
                for j in others:
                    w = 1
                    for m in others:
                        if m != j:
                            w = F.mul(w, F.div(F.sub(xs[i], xs[m]),
                                               F.sub(xs[j], xs[m])))
                    want.append(w)
                assert ctx.weights[i] == want, (p.q, l, i)
                # and it evaluates a polynomial of degree below alpha_l
                coeffs = [rng.randrange(F.order) for _ in range(a)]
                values = [vec_mat(F, p.mu_row(g, l), [[c] for c in coeffs])[0]
                          for g in ids]
                assert vec_mat(F, want, [[values[j]] for j in others]) == [
                    values[i]]


def test_detect_mode_catches_what_extraction_absorbs(q3_msr):
    # the same single-entry corruptions, fed through the two-set comparison
    p = q3_msr
    msg = random_message(p, 16)
    nodes = encode_profile(p, msg)
    batches = recon_batches(p, nodes, "detect")
    caught = 0
    total = 0
    for target in range(4):
        bad = corrupt_recon(batches, {batches[target].helper_id}, 9,
                            seed=500 + target, layers={0})
        rec = hmsr.reconstruct_detect(bad, p)
        total += 1
        if not rec.ok:
            caught += 1
    assert caught == total


def test_rec_st_tau1_q3(q3_msr):
    p = q3_msr
    F = p.field
    rng = random.Random(18)
    l = 0
    a = p.alpha[l]
    S = [[0] * a for _ in range(a)]
    T = [[0] * a for _ in range(a)]
    for i in range(a):
        for j in range(i, a):
            S[i][j] = S[j][i] = rng.randrange(9)
            T[i][j] = T[j][i] = rng.randrange(9)
    blocks = []
    for g in range(9):
        mu = p.mu_row(g, l)
        ms = vec_mat(F, mu, S)
        mt = vec_mat(F, mu, T)
        blocks.append([F.add(ms[c], F.mul(p.lam[l][g], mt[c])) for c in range(a)])
    blocks[4] = [rng.randrange(9) for _ in range(a)]
    S2, T2, corrupt = hmsr.rec_st(blocks, frozenset(), l, p)
    assert (S2, T2) == (S, T)
    assert corrupt == {4}


def test_rec_st_with_prior_erasures_q4(q4_msr):
    # sigma=2 prior flags + tau=2 new at the widest layer: 2+4+1 <= 16-6
    p = q4_msr
    F = p.field
    rng = random.Random(19)
    l = 0
    a = p.alpha[l]
    S = [[0] * a for _ in range(a)]
    T = [[0] * a for _ in range(a)]
    for i in range(a):
        for j in range(i, a):
            S[i][j] = S[j][i] = rng.randrange(16)
            T[i][j] = T[j][i] = rng.randrange(16)
    blocks = []
    for g in range(16):
        mu = p.mu_row(g, l)
        ms = vec_mat(F, mu, S)
        mt = vec_mat(F, mu, T)
        blocks.append([F.add(ms[c], F.mul(p.lam[l][g], mt[c])) for c in range(a)])
    erased = frozenset({3, 9})
    blocks[3] = None
    blocks[9] = None
    for g in (6, 12):
        blocks[g] = [rng.randrange(16) for _ in range(a)]
    S2, T2, corrupt = hmsr.rec_st(blocks, erased, l, p)
    assert (S2, T2) == (S, T)
    assert corrupt == {6, 12}


def _per_column_rec_st(blocks, erased, l, profile):
    """rec_st that decodes both words of every present column by the full
    error search, with no suspects (the reference for the joint location)."""
    F = profile.field
    q2 = profile.n_nodes
    a = profile.alpha[l]
    mu = profile.phi(l)
    lam = profile.lam[l]
    sigma = len(erased)
    present = [g for g in range(q2) if g not in erased]
    # column j's word erases j and the present nodes that share its
    # lambda_l; each column decodes to decode's default budget, and the
    # vote threshold is the smallest of them
    tau_bud = min(((q2 - sigma - sum(lam[g] == lam[j] for g in present) - a)
                   // 2 for j in present), default=-1)
    if tau_bud < 0:
        raise DecodeFailure(f"{sigma} erasures exceed the recovery budget")
    for g in present:
        if blocks[g] is None:
            raise DecodeFailure(f"node {g} missing without being flagged")
    mu_t = transpose(mu)
    C, D = hmsr._pairs(F, [None if g in erased else
                           [bytes([v]) for v in vec_mat(F, blocks[g], mu_t)]
                           for g in range(q2)], profile.lam[l])
    pts = [profile.x_value(g) for g in range(q2)]
    votes = {g: 0 for g in range(q2)}
    decoded = {}
    for j in present:
        try:
            res = [decode(F, mu, [v if v is ERASED else v[0] for v in W[j]],
                          points=pts) for W in (C, D)]
        except DecodeFailure:
            continue
        decoded[j] = [r.message for r in res]
        for g in res[0].error_positions | res[1].error_positions:
            votes[g] += 1
    good = [j for j in decoded if votes[j] <= tau_bud]
    if len(good) < a:
        raise DecodeFailure(
            f"only {len(good)} trustworthy columns for dimension {a}"
        )
    chosen = good[:a]
    minv = mat_inv(F, transpose([mu[j] for j in chosen]))
    S = mat_mul(F, transpose([decoded[j][0] for j in chosen]), minv)
    T = mat_mul(F, transpose([decoded[j][1] for j in chosen]), minv)
    if (hmsr._asymmetric_block(S) is not None
            or hmsr._asymmetric_block(T) is not None):
        raise DecodeFailure("recovered block not symmetric "
                            "(corruption beyond the budget)")
    corrupt = {g for g, r in zip(present, mat_mul(
        F, [profile.nu_row(g, l) for g in present], S + T)) if blocks[g] != r}
    if len(corrupt) > tau_bud:
        raise DecodeFailure(
            f"{len(corrupt)} mismatching rows exceed the budget {tau_bud}"
        )
    return S, T, corrupt


def _st_blocks(profile, l, rng):
    """A random symmetric (S, T) block of layer l and every node's row of it."""
    F, a = profile.field, profile.alpha[l]
    S = [[0] * a for _ in range(a)]
    T = [[0] * a for _ in range(a)]
    for i in range(a):
        for j in range(i, a):
            S[i][j] = S[j][i] = rng.randrange(F.order)
            T[i][j] = T[j][i] = rng.randrange(F.order)
    return S, T, [vec_mat(F, profile.nu_row(g, l), S + T)
                  for g in range(profile.n_nodes)]


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr"])
def test_rec_st_joint_location_matches_the_per_column_decode(prof_name,
                                                             request):
    """Suspects and waiting columns or not, rec_st returns the same (S, T,
    corrupt) or the same failure, at every layer, for 0 to budget + 2 liars
    that resample or offset each of their symbols with probability 1 or 1/2,
    with and without prior erasures."""
    profile = request.getfixturevalue(prof_name)
    F, n = profile.field, profile.n_nodes
    rng = random.Random(prof_name)

    def outcome(solve, blocks, erased, l):
        try:
            return solve(blocks, erased, l, profile)
        except DecodeFailure as exc:
            return "DecodeFailure", str(exc)

    seen = set()
    # q=3 words are short, so more of them reach the rare ties past the budget
    rounds = 8 if profile.q == 3 else 1
    for l in [l for l in range(profile.q) for _ in range(rounds)]:
        for sigma in (0, 1, 3):
            prior = frozenset(rng.sample(range(n), sigma))
            budget = (n - profile.alpha[l] - 1 - sigma) // 2
            for n_liars in range(budget + 3):
                for kind in ("random", "offset"):
                    for activation in (1.0, 0.5):
                        S, T, blocks = _st_blocks(profile, l, rng)
                        rest = [g for g in range(n) if g not in prior]
                        liars = rng.sample(rest, n_liars)
                        shift = rng.randrange(1, F.order)
                        for g in liars:
                            blocks[g] = [
                                v if rng.random() >= activation
                                else rng.randrange(F.order) if kind == "random"
                                else F.add(v, shift) for v in blocks[g]]
                        for g in prior:
                            blocks[g] = None
                        got = outcome(hmsr.rec_st, blocks, prior, l)
                        want = outcome(_per_column_rec_st, blocks, prior, l)
                        assert got == want, (l, prior, liars, kind, activation)
                        if got[0] == "DecodeFailure":
                            seen.add("failed")
                        else:
                            seen.add("named" if got[2] else "clean")
                            if n_liars <= budget:
                                assert got[:2] == (S, T)
    assert seen == {"clean", "named", "failed"}


def test_rec_st_locates_two_liars_with_at_most_two_full_decodes(q4_msr,
                                                                  monkeypatch):
    """Two liars that resample their whole rows: the first words locate
    them, and every later word takes the codeword or the suspect exit (the
    per-column decode makes about 2 (q^2 - sigma) full decodes)."""
    p = q4_msr
    calls = []
    real = decoder._decode_wb

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decoder, "_decode_wb", counting)
    rng = random.Random(25)
    S, T, blocks = _st_blocks(p, 0, rng)
    for g in (6, 12):
        blocks[g] = [rng.randrange(p.field.order) for _ in blocks[g]]
    assert hmsr.rec_st(blocks, frozenset(), 0, p) == (S, T, {6, 12})
    assert 1 <= len(calls) <= 2


def test_reconstruct_recover_budgeted(q3_msr):
    msg = random_message(q3_msr, 20)
    nodes = encode_profile(q3_msr, msg)
    batches = recon_batches(q3_msr, nodes, "recover")
    evil = {2, 7}
    bad = corrupt_recon(batches, evil, 9, seed=44)
    rec = hmsr.reconstruct_recover(bad, q3_msr)
    assert rec.ok and rec.message == msg
    assert rec.corrupted == frozenset(evil)


def test_reconstruct_recover_reencodes_to_nodes(q4_msr):
    msg = random_message(q4_msr, 21)
    nodes = encode_profile(q4_msr, msg)
    batches = recon_batches(q4_msr, nodes, "recover")
    evil = {0, 5, 11}
    bad = corrupt_recon(batches, evil, 16, seed=45)
    rec = hmsr.reconstruct_recover(bad, q4_msr)
    assert rec.ok and rec.message == msg
    renodes = encode_profile(q4_msr, rec.message)
    for g in range(16):
        assert renodes[g].y == nodes[g].y


# -- detect against the two-window rule ------------------------------------------


def _window_order(batches, l):
    return sorted((b for b in batches if b.level >= l), key=lambda b: b.helper_id)


def _two_window_repair(profile, z, batches):
    """Detect repair by solving each block from helpers {0..d-1} and again
    from {1..d}; any difference is the alarm."""
    F = profile.field
    msr = profile.mode == "msr"
    tilde = []
    for l in range(profile.q):
        d, a = profile.d[l], profile.alpha[l]
        helpers = _window_order(batches, l)[:d + 1]
        V = [profile.nu_row(b.helper_id, l) if msr
             else profile.mu_row(b.helper_id, l) for b in helpers]
        row = []
        for t in range(profile.blocks(l)):
            p = [b.symbols[(l, t)] for b in helpers]
            x = solve_square(F, V[:d], p[:d])
            if x != solve_square(F, V[1:], p[1:]):
                return False, {"layer": l, "block": t}, None
            if msr:
                x = [F.add(x[j], F.mul(profile.lam[l][z], x[a + j]))
                     for j in range(a)]
            row.extend(x)
        tilde.append(row)
    return True, None, mat_mul(F, profile.points.basis(z), tilde)


def _two_window_reconstruct(profile, batches):
    """Detect reconstruction by extracting each block from responders
    {0..k-1} and again from {1..k}; an asymmetric block or any difference
    is the alarm."""
    F = profile.field
    msr = profile.mode == "msr"
    s, t_ = [[[] for _ in range(profile.q)] for _ in range(2)]
    for l in range(profile.q):
        k, a = profile.k[l], profile.alpha[l]
        resp = _window_order(batches, l)[:k + 1]
        for t in range(profile.blocks(l)):
            out = []
            for win in (resp[:k], resp[1:]):
                ids = [b.helper_id for b in win]
                R = [b.rows[l][t * a:(t + 1) * a] for b in win]
                if msr:
                    out.append(_window_st(R, ids, l, profile))
                    continue
                mu_rows = [profile.mu_row(g, l) for g in ids]
                S, T, asym = _window_m(F, mu_rows, k, R)
                if asym is not None:
                    return False, {"layer": l, "block": t}, None
                out.append((S, T))
            if out[0] != out[1]:
                return False, {"layer": l, "block": t}, None
            s[l].append(out[0][0])
            t_[l].append(out[0][1])
    return True, None, reference_message(s, t_, profile)


def _outcome(call):
    try:
        out = call()
    except HrgcError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return out
    return out.ok, out.alarm, out.message if out.y is None else out.y


@pytest.mark.parametrize("prof_name", ["q3_msr", "q3_mbr"])
def test_detect_matches_the_two_window_rule(prof_name, request):
    """Checking the one extra helper against the first window's solution
    raises exactly the alarms of solving the shifted window again."""
    profile = request.getfixturevalue(prof_name)
    msr = profile.mode == "msr"
    regenerate = hmsr.regenerate_detect if msr else hmbr.regenerate_mbr_detect
    reconstruct = hmsr.reconstruct_detect if msr else hmbr.reconstruct_mbr_detect
    order, n = profile.field.order, profile.n_nodes
    rng = random.Random(411)
    seen = set()
    for trial in range(40):
        nodes = encode_profile(profile, random_message(profile, 500 + trial))
        layers = rng.choice([None, {rng.randrange(profile.q)}])

        z = rng.randrange(n)
        helpers = [g for g in range(n) if g != z][:profile.d[0] + 2]
        liars = set(rng.sample(helpers, rng.randint(1, 2)))
        batches = corrupt_repair(repair_batches(profile, nodes, z, "detect"),
                                 liars, order, trial, layers)
        want = _outcome(lambda: _two_window_repair(profile, z, batches))
        got = _outcome(lambda: regenerate(z, batches, profile))
        assert got == want, ("repair", trial, z, liars, layers)
        seen.add(("repair", want[0]))

        liars = set(rng.sample(range(profile.k[0] + 2), rng.randint(1, 2)))
        batches = corrupt_recon(recon_batches(profile, nodes, "detect"),
                                liars, order, trial, layers)
        want = _outcome(lambda: _two_window_reconstruct(profile, batches))
        got = _outcome(lambda: reconstruct(batches, profile))
        assert got == want, ("reconstruct", trial, liars, layers)
        seen.add(("reconstruct", want[0]))
    # both operations passed some corrupted batches and alarmed on others
    assert {("repair", True), ("repair", False),
            ("reconstruct", True), ("reconstruct", False)} <= seen


@pytest.mark.parametrize("prof_name,failed,positions", [
    ("q3_msr", None, 260), ("q3_mbr", None, 170),
    ("q4_msr", (0, 7, 15), 488), ("q4_mbr", (0, 7, 15), 416),
    ("q3_msr", 2, 936)])
def test_a_lone_liar_always_alarms_in_detect_reconstruct(prof_name, failed,
                                                         positions, request):
    """One nonzero offset at any entry of block 0 of any responder's layer
    row raises the alarm at that (layer, block 0), in every detect
    reconstruct plan with no failed node and with each failed node of
    ``failed`` (None: every node), or, when ``failed`` is a number, with
    every set of that many failed nodes.  The check is linear in the lie,
    so one offset per position decides that position: no position is
    blind."""
    from itertools import combinations
    profile = request.getfixturevalue(prof_name)
    F, n = profile.field, profile.n_nodes
    reconstruct = (hmsr.reconstruct_detect if profile.mode == "msr"
                   else hmbr.reconstruct_mbr_detect)
    message = random_message(profile, 33)
    nodes = encode_profile(profile, message)
    if isinstance(failed, int):
        failure_sets = list(combinations(range(n), failed))
    else:
        failure_sets = [(), *((z,) for z in (range(n) if failed is None
                                             else failed))]
    checked = 0
    for down in failure_sets:
        plan = hmsr.staged_request_plan(profile, "reconstruct", "detect",
                                        [g for g in range(n) if g not in down])
        batches = [hmsr.recon_response(nodes[g], profile, lvl)
                   for g, lvl in plan]
        rep = reconstruct(batches, profile)
        assert rep.ok and rep.message == message, down
        for i, b in enumerate(batches):
            for l in range(b.level + 1):
                for e in range(profile.alpha[l]):
                    rows = {j: bytearray(r) for j, r in b.rows.items()}
                    rows[l][e] = F.add(rows[l][e], 1)
                    lie = hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows)
                    rep = reconstruct(batches[:i] + [lie] + batches[i + 1:],
                                      profile)
                    assert not rep.ok and rep.alarm == {"layer": l, "block": 0}, (
                        down, b.helper_id, l, e)
                    checked += 1
    assert checked == positions


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr"])
def test_consistent_pair_passes_detect_reconstruct(prof_name, request):
    """Two omniscient colluders pass detect reconstruct silently: each adds
    nu_g [dS; dT] to block 0 of its layer-0 row, for a nonzero symmetric
    (dS, dT) that every honest detect responder's nu row maps to zero, so
    every detect row agrees with a wrong block.  Recover hears every node,
    returns the message and names both."""
    profile = request.getfixturevalue(prof_name)
    F, a = profile.field, profile.alpha[0]
    message = random_message(profile, 91)
    nodes = encode_profile(profile, message)
    liars = {0, 1}
    detect = recon_batches(profile, nodes, "detect")
    honest = [b.helper_id for b in _window_order(detect, 0)[:profile.k[0] + 1]
              if b.helper_id not in liars]
    # one symmetric unit pair per upper-triangle entry of dS, then of dT
    entries = [(h, i, j) for h in range(2) for i in range(a)
               for j in range(i, a)]

    def pair(values):
        D = [[0] * a for _ in range(2 * a)]
        for (h, i, j), v in zip(entries, values):
            D[h * a + i][j] = D[h * a + j][i] = v
        return D

    units = [pair([int(u == e) for e in range(len(entries))])
             for u in range(len(entries))]
    null = left_null_space(F, [
        [x for g in honest for x in vec_mat(F, profile.nu_row(g, 0), D)]
        for D in units])
    assert len(null) == a
    delta = pair(null[0])
    shift = {g: vec_mat(F, profile.nu_row(g, 0), delta) for g in liars}
    assert all(any(v) for v in shift.values())

    def lie(batches):
        out = []
        for b in batches:
            if b.helper_id in liars:
                rows = {l: bytearray(r) for l, r in b.rows.items()}
                rows[0][:a] = [F.add(x, y)
                               for x, y in zip(rows[0], shift[b.helper_id])]
                b = hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows)
            out.append(b)
        return out

    rep = hmsr.reconstruct_detect(lie(detect), profile)
    assert rep.ok and rep.alarm is None and rep.message != message
    rep = hmsr.reconstruct_recover(
        lie(recon_batches(profile, nodes, "recover")), profile)
    assert rep.ok and rep.message == message and rep.corrupted == liars


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr", "q3_mbr", "q4_mbr"])
def test_recovery_solvers_reduce_to_the_window_extractors(prof_name, request):
    """With only the extractor's responders present (0..alpha_l for MSR,
    0..k_l-1 for MBR) and every other node erased, the recovery solver
    returns the extractor's block and flags no node.  On random rows both
    refuse the block or both return the same one."""
    profile = request.getfixturevalue(prof_name)
    F, n = profile.field, profile.n_nodes
    msr = profile.mode == "msr"
    solve = hmsr.rec_st if msr else hmbr.rec_m
    message = random_message(profile, 77)
    truth = (hmsr.arrange_st if msr else hmbr.arrange_m)(message, profile)
    stack = [[list(r) for r in hmsr.tilde_rows(profile, s, profile.q - 1)]
             for s in encode_profile(profile, message)]
    rng = random.Random(78)
    for l in range(profile.q):
        a, k = profile.alpha[l], profile.k[l]
        ids = list(range(a + 1 if msr else k))
        erased = frozenset(range(len(ids), n))

        def extract(R):
            """The window's (S, T), or None when the block is asymmetric."""
            if msr:
                return _window_st(R, ids, l, profile)
            S, T, asym = _window_m(
                F, [profile.mu_row(g, l) for g in ids], k, R)
            return (S, T) if asym is None else None

        for t in range(profile.blocks(l)):
            R = [stack[g][l][t * a:(t + 1) * a] for g in ids]
            S, T, corrupt = solve(R + [None] * len(erased), erased, l, profile)
            assert (S, T) == extract(R) == block(truth, profile, l, t)
            assert corrupt == set()

            R = [[rng.randrange(F.order) for _ in range(a)] for _ in ids]
            want = extract(R)
            try:
                S, T, corrupt = solve(R + [None] * len(erased), erased, l,
                                      profile)
            except DecodeFailure:
                assert want is None, (l, t)
            else:
                assert (S, T) == want and corrupt == set(), (l, t)


# -- the certified block exit of recover reconstruction ---------------------------

FIXTURES = ["q3_msr", "q4_msr", "q3_mbr", "q4_mbr"]


def _solver_only_recover(batches, profile, prior_flags):
    """Recover reconstruction that sends every block to the block solver
    (the loop without the certified exit): (ok, message, corrupted,
    tallies, failure)."""
    msr = profile.mode == "msr"
    solve = hmsr.rec_st if msr else hmbr.rec_m
    q2 = profile.n_nodes
    rows_by_node = {b.helper_id: b.rows for b in batches}
    flags = set(prior_flags) | {g for g in range(q2) if g not in rows_by_node}
    found, tallies = set(), {}
    s, t_ = [[[] for _ in range(profile.q)] for _ in range(2)]
    for l in range(profile.q - 1, -1, -1):
        sigma = len(flags)
        tallies[l] = {"erasures": sigma, "errors": 0}
        budget = q2 - profile.k[l]
        if sigma > budget:
            return (False, None, frozenset(found), tallies,
                    f"flagged count {sigma} exceeds layer-{l} budget {budget}")
        a = profile.alpha[l]
        for t in range(profile.blocks(l)):
            blocks = [None if g in flags else rows_by_node[g][l][t * a:(t + 1) * a]
                      for g in range(q2)]
            try:
                S, T, newly = solve(blocks, frozenset(flags), l, profile)
            except DecodeFailure as exc:
                return (False, None, frozenset(found), tallies,
                        f"layer {l} block {t}: {exc}")
            newly -= flags
            flags |= newly
            found |= newly
            tallies[l]["errors"] += len(newly)
            s[l].append(S)
            t_[l].append(T)
    return (True, reference_message(s, t_, profile), frozenset(found), tallies,
            None)


def _recover(profile):
    return (hmsr.reconstruct_recover if profile.mode == "msr"
            else hmbr.reconstruct_mbr_recover)


def _recover_outcomes(profile, batches, prior_flags):
    """(engine outcome, solver-only outcome); an HrgcError is its type and
    text."""
    def run(call):
        try:
            out = call()
        except HrgcError as exc:
            return type(exc).__name__, str(exc)
        if isinstance(out, tuple):
            return out
        return out.ok, out.message, out.corrupted, out.tallies, out.failure
    return (run(lambda: _recover(profile)(batches, profile, prior_flags)),
            run(lambda: _solver_only_recover(batches, profile, prior_flags)))


def _lying_batches(profile, message, liars, kind, activation, rng):
    """Recover-mode responses in which each liar, per (layer, block) with
    probability ``activation``, sends random symbols ("random") or that
    block's rows of one other message ("consistent": the liars agree)."""
    nodes = encode_profile(profile, message)
    other = encode_profile(profile, random_message(profile, rng.randrange(10**6)))
    out = []
    for b in recon_batches(profile, nodes, "recover"):
        rows = {l: bytearray(r) for l, r in b.rows.items()}
        if b.helper_id in liars:
            alt = [list(r) for r in
                   hmsr.tilde_rows(profile, other[b.helper_id], profile.q - 1)]
            for l, r in rows.items():
                a = profile.alpha[l]
                for t in range(profile.blocks(l)):
                    if rng.random() < activation:
                        r[t * a:(t + 1) * a] = (
                            alt[l][t * a:(t + 1) * a] if kind == "consistent"
                            else [rng.randrange(profile.field.order)
                                  for _ in range(a)])
        out.append(hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows))
    return out


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_recover_exit_matches_the_solver_only_loop(prof_name, request):
    """Certified exit or not, recover reconstruction returns the same ok,
    message, corrupted set, tallies and failure, for 0 to budget + 2
    liars that lie at random or consistently, with and without prior
    flags."""
    profile = request.getfixturevalue(prof_name)
    n = profile.n_nodes
    budget = (n - profile.k[0]) // 2
    rng = random.Random(prof_name)
    seen = set()
    for n_liars in range(budget + 3):
        for kind in ("random", "consistent"):
            message = random_message(profile, rng.randrange(10**6))
            liars = set(rng.sample(range(n), n_liars))
            activation = rng.choice((1.0, 0.5))
            batches = _lying_batches(profile, message, liars, kind,
                                     activation, rng)
            for prior in (frozenset(), frozenset(rng.sample(range(n), 2))):
                got, want = _recover_outcomes(profile, batches, prior)
                assert got == want, (n_liars, kind, activation, prior)
                seen.add((got[0], bool(got[2]) if got[0] else None))
                if 2 * n_liars + len(prior) <= n - profile.k[0]:
                    assert got[:2] == (True, message)
    # honest, liars named, and explicit failures all occurred; q4_mbr's top
    # layer (k = 3) names up to 6 liars before the wider layers, so budget + 2
    # liars never defeat it here
    assert {(True, False), (True, True)} <= seen
    assert (False, None) in seen or prof_name == "q4_mbr"


@pytest.mark.parametrize("prof_name", FIXTURES)
@pytest.mark.parametrize("error", [SingularSystem, AsymmetryDetected])
def test_recover_exit_falls_through_when_the_window_fails(prof_name, error,
                                                          request, monkeypatch):
    """A window that cannot be built (SingularSystem) or whose extraction
    is asymmetric from block 0 on (AsymmetryDetected: the extractor returns
    asym = 0) sends every block to the solver, with the solver-only
    outcome."""
    profile = request.getfixturevalue(prof_name)
    module, name = ((hmsr, "_st_window") if profile.mode == "msr"
                    else (hmbr, "_m_window"))
    real = getattr(module, name)

    def window(profile, l, ids):
        if error is AsymmetryDetected:
            extract = real(profile, l, ids)
            return lambda R: (*extract(R)[:2], 0)
        raise error("patched window")

    monkeypatch.setattr(module, name, window)
    rng = random.Random(5)
    message = random_message(profile, 6)
    for liars in (set(), {1, profile.n_nodes - 2}):
        batches = _lying_batches(profile, message, liars, "random", 1.0, rng)
        got, want = _recover_outcomes(profile, batches, frozenset({3}))
        assert got == want and got[0] is True, liars


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_recover_exit_reach(prof_name, request, monkeypatch):
    """An honest recover reconstruction never calls the block solver and
    builds one extractor per layer.  One flipped symbol in one block of the
    last node's row, outside every window, sends exactly that block to the
    solver, which names the node; the later blocks take the exit again.  A
    liar inside the window makes the next block rebuild its extractor."""
    profile = request.getfixturevalue(prof_name)
    F, n, q = profile.field, profile.n_nodes, profile.q
    module, solver, win = ((hmsr, "rec_st", "_st_window")
                           if profile.mode == "msr"
                           else (hmbr, "rec_m", "_m_window"))
    real_solve, real_window = getattr(module, solver), getattr(module, win)
    solved, built = [], []

    def counting_solve(blocks, erased, l, p):
        solved.append((l, blocks))
        return real_solve(blocks, erased, l, p)

    def counting_window(p, l, ids):
        built.append(l)
        return real_window(p, l, ids)

    monkeypatch.setattr(module, solver, counting_solve)
    monkeypatch.setattr(module, win, counting_window)
    message = random_message(profile, 91)
    batches = recon_batches(profile, encode_profile(profile, message),
                            "recover")
    rep = _recover(profile)(batches, profile)
    assert rep.ok and rep.message == message and rep.corrupted == frozenset()
    assert solved == [] and built == list(range(q - 1, -1, -1))

    l, a = 1, profile.alpha[1]
    assert profile.blocks(l) > 1
    for liar, rebuilt in ((n - 1, []), (0, [l])):
        solved.clear()
        built.clear()
        bad = []
        for b in batches:
            rows = {j: bytearray(r) for j, r in b.rows.items()}
            if b.helper_id == liar:
                rows[l][0] = F.add(rows[l][0], 1)
            bad.append(hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows))
        rep = _recover(profile)(bad, profile)
        assert rep.ok and rep.message == message
        assert rep.corrupted == frozenset({liar})
        assert [(j, list(blocks[liar])) for j, blocks in solved] == [
            (l, [F.add(batches[liar].rows[l][0], 1)]
             + list(batches[liar].rows[l][1:a]))]
        assert built == sorted(list(range(q)) + rebuilt, reverse=True), liar


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_block_solvers_compare_rows_by_value(prof_name, request, monkeypatch):
    """The honest rows are bytes and the liar's a ``bytearray`` with one
    flipped symbol, as the simulator's liars send them: the block that
    goes to the solver comes back exact, and the solver, which compares
    every row with its re-encoding, names the liar alone."""
    profile = request.getfixturevalue(prof_name)
    F, n = profile.field, profile.n_nodes
    module, solver = ((hmsr, "rec_st") if profile.mode == "msr"
                      else (hmbr, "rec_m"))
    real_solve, named = getattr(module, solver), []

    def counting_solve(blocks, erased, l, p):
        S, T, corrupt = real_solve(blocks, erased, l, p)
        named.append(corrupt)
        return S, T, corrupt

    monkeypatch.setattr(module, solver, counting_solve)
    message = random_message(profile, 96)
    batches = recon_batches(profile, encode_profile(profile, message),
                            "recover")
    assert all(type(r) is bytes for b in batches for r in b.rows.values())
    for liar in (0, n - 1):
        named.clear()
        out = []
        for b in batches:
            if b.helper_id == liar:
                rows = {l: bytearray(r) for l, r in b.rows.items()}
                rows[0][0] = F.add(rows[0][0], 1)
                b = hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows)
            out.append(b)
        rep = _recover(profile)(out, profile)
        assert rep.ok and rep.message == message, liar
        assert rep.corrupted == frozenset({liar}) and named == [{liar}], liar


@pytest.mark.parametrize("prof_name", ["q3_msr", "q3_mbr"])
def test_recover_exit_lets_other_window_errors_through(prof_name, request,
                                                       monkeypatch):
    profile = request.getfixturevalue(prof_name)
    module, name = ((hmsr, "_st_window") if profile.mode == "msr"
                    else (hmbr, "_m_window"))

    def window(profile, l, ids):
        raise TypeError("not a window failure")

    monkeypatch.setattr(module, name, window)
    batches = recon_batches(profile, encode_profile(
        profile, random_message(profile, 7)), "recover")
    with pytest.raises(TypeError, match="not a window failure"):
        _recover(profile)(batches, profile)


# -- recover repair through the shared recover loop ------------------------------


def _per_block_regenerate_recover(z, batches, profile, prior_flags):
    """Recover repair that decodes every block against all other nodes (the
    reference for the shared loop): (ok, y, corrupted, tallies, failure)."""
    F = profile.field
    msr = profile.mode == "msr"
    q2 = profile.n_nodes
    helpers = sorted(batches, key=lambda b: b.helper_id)
    if len(helpers) != q2 - 1:
        raise NotEnoughHelpers(f"recovery needs {q2 - 1} batches, got {len(helpers)}")
    ids = [b.helper_id for b in helpers]
    points = [profile.x_value(g) for g in ids]
    flags, found, tallies = set(prior_flags), set(), {}
    cap = (q2 - profile.d[-1] - 1) // 2
    tilde = [None] * profile.q
    for l in range(profile.q - 1, -1, -1):
        # a help symbol is f(x_g), deg f < d_l (for MSR f = a + lambda_l b)
        gen = [profile.powers(profile.d[l])[g] for g in ids]
        sigma = sum(1 for g in ids if g in flags)
        tallies[l] = {"erasures": sigma, "errors": 0}
        budget = min(q2 - profile.d[l] - 1, cap)
        if sigma > budget:
            return (False, None, frozenset(found), tallies,
                    f"erasure count {sigma} exceeds layer-{l} budget {budget}")
        a = profile.alpha[l]
        layer_row = []
        for t in range(profile.blocks(l)):
            word = [ERASED if g in flags else b.symbols[(l, t)]
                    for g, b in zip(ids, helpers)]
            try:
                res = decode(F, gen, word, points=points)
            except DecodeFailure as exc:
                return (False, None, frozenset(found), tallies,
                        f"layer {l} block {t}: {exc}")
            newly = {ids[i] for i in res.error_positions}
            flags |= newly
            found |= newly
            tallies[l]["errors"] += len(newly)
            x = res.message
            if msr:
                b, x = _poly_divmod(F, x, profile.lam_poly[l])
                x = vec_mat(F, [1, profile.lam[l][z]], [x, b])
            layer_row.extend(x)
        tilde[l] = layer_row
    return (True, mat_mul(F, profile.points.basis(z), tilde), frozenset(found),
            tallies, None)


def _recover_repair(profile):
    return (hmsr.regenerate_recover if profile.mode == "msr"
            else hmbr.regenerate_mbr_recover)


def _recover_repair_outcomes(profile, z, batches, prior_flags):
    """(engine outcome, per-block outcome); an HrgcError is its type and
    text."""
    def run(call):
        try:
            out = call()
        except HrgcError as exc:
            return type(exc).__name__, str(exc)
        if isinstance(out, tuple):
            return out
        return out.ok, out.y, out.corrupted, out.tallies, out.failure
    return (run(lambda: _recover_repair(profile)(z, batches, profile, prior_flags)),
            run(lambda: _per_block_regenerate_recover(z, batches, profile,
                                                      prior_flags)))


def _lying_repair_batches(profile, message, z, liars, kind, activation, rng):
    """Recover-mode help symbols for node z in which each liar, per (layer,
    block) with probability ``activation``, sends a random symbol ("random")
    or its symbol for one other message ("consistent": the liars agree)."""
    nodes = encode_profile(profile, message)
    other = encode_profile(profile, random_message(profile, rng.randrange(10**6)))
    out = []
    for b in repair_batches(profile, nodes, z, "recover"):
        symbols = dict(b.symbols)
        if b.helper_id in liars:
            alt = hmsr.helper_response(other[b.helper_id], profile, b.level,
                                       z).symbols
            for key in sorted(symbols):
                if rng.random() < activation:
                    symbols[key] = (alt[key] if kind == "consistent"
                                    else rng.randrange(profile.field.order))
        out.append(hmsr.HelpSymbolBatch(b.helper_id, b.level, symbols=symbols))
    return out


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_recover_repair_matches_the_per_block_decode(prof_name, request):
    """The shared recover loop repairs with the same ok, node, corrupted
    set, tallies and failure as decoding every block, for 0 to budget + 2
    liars that lie at random or consistently, in every block or in half of
    them, with no prior flags, two flagged helpers, or the failed node and
    one helper flagged (only helpers count as erasures)."""
    profile = request.getfixturevalue(prof_name)
    n = profile.n_nodes
    budget = min(n - profile.d[0] - 1, (n - profile.d[-1] - 1) // 2)
    rng = random.Random(prof_name)
    seen = set()
    for n_liars in range(budget + 3):
        for kind in ("random", "consistent"):
            for activation in (1.0, 0.5):
                z = rng.randrange(n)
                helpers = [g for g in range(n) if g != z]
                message = random_message(profile, rng.randrange(10**6))
                liars = set(rng.sample(helpers, n_liars))
                batches = _lying_repair_batches(profile, message, z, liars, kind,
                                                activation, rng)
                for prior in (frozenset(), frozenset(rng.sample(helpers, 2)),
                              frozenset({z, rng.choice(helpers)})):
                    got, want = _recover_repair_outcomes(profile, z, batches,
                                                         prior)
                    assert got == want, (n_liars, kind, activation, z, prior)
                    seen.add((got[0], bool(got[2]) if got[0] else None))
                    if not liars and got[0]:
                        assert got[1] == encode_profile(profile, message)[z].y
    # honest, liars named, and explicit failures all occurred
    assert {(True, False), (True, True), (False, None)} <= seen


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_recover_repair_reach(prof_name, request, monkeypatch):
    """An honest recover repair makes no decode call.  One perturbed help
    symbol of the highest-id helper, at layer 1 block 0 and outside every
    window, makes exactly one decode call, whose word carries that symbol,
    and the repair names that helper."""
    profile = request.getfixturevalue(prof_name)
    F, n = profile.field, profile.n_nodes
    words = []

    def counting_decode(F, generator, values, **kw):
        words.append(values)
        return decode(F, generator, values, **kw)

    monkeypatch.setattr(hmsr, "decode", counting_decode)
    nodes = encode_profile(profile, random_message(profile, 92))
    z, liar = 0, n - 1
    batches = repair_batches(profile, nodes, z, "recover")
    rep = _recover_repair(profile)(z, batches, profile)
    assert rep.ok and rep.y == nodes[z].y and rep.corrupted == frozenset()
    assert words == []

    assert profile.blocks(1) > 1
    bad = []
    for b in batches:
        symbols = dict(b.symbols)
        if b.helper_id == liar:
            symbols[(1, 0)] = F.add(symbols[(1, 0)], 1)
            lie = symbols[(1, 0)]
        bad.append(hmsr.HelpSymbolBatch(b.helper_id, b.level, symbols=symbols))
    rep = _recover_repair(profile)(z, bad, profile)
    assert rep.ok and rep.y == nodes[z].y and rep.corrupted == frozenset({liar})
    assert len(words) == 1 and words[0][-1] == lie


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_recover_repair_singular_window_matches_the_per_block_decode(
        prof_name, request, monkeypatch):
    """A repeated encoding row makes layer 1's repair window singular: its
    blocks go to the decoder, with the per-block outcome.  An MSR window
    reads no nu row (see the plain/detect test below), so there no block
    goes to the decoder and the outcome is the same."""
    profile = request.getfixturevalue(prof_name)
    name = "nu_row" if profile.mode == "msr" else "mu_row"
    real = getattr(profile, name)
    nodes = encode_profile(profile, random_message(profile, 93))
    z, l = 0, 1
    batches = repair_batches(profile, nodes, z, "recover")
    layers = []

    def counting_decode(F, generator, values, **kw):
        layers.append(len(generator[0]))
        return decode(F, generator, values, **kw)

    def row(g, j):
        return real(1 if (g, j) == (2, l) else g, j)

    monkeypatch.setattr(hmsr, "decode", counting_decode)
    monkeypatch.setattr(profile, name, row)
    got, want = _recover_repair_outcomes(profile, z, batches, frozenset())
    assert got == want
    if profile.mode == "msr":
        assert got[0] and layers == []
    else:
        assert layers and set(layers) == {profile.d[l]}


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_recover_repair_erases_missing_helpers(prof_name, request):
    """A helper that sent no batch is an erasure at every layer: the repair
    is exact and names no node.  One missing batch more than the layer-0
    budget, the smallest, ends in a budget failure, not in an exception: at
    the highest layer with that budget, which the descending loop checks
    first (layer 0 for MSR; MBR's budgets are all equal)."""
    profile = request.getfixturevalue(prof_name)
    n = profile.n_nodes
    nodes = encode_profile(profile, random_message(profile, 94))
    z = 2
    batches = repair_batches(profile, nodes, z, "recover")
    rep = _recover_repair(profile)(z, batches[:3] + batches[4:], profile)
    assert rep.ok and rep.y == nodes[z].y and rep.corrupted == frozenset()
    assert rep.tallies == {l: {"erasures": 1, "errors": 0}
                           for l in range(profile.q)}
    budgets = [min(n - d - 1, (n - profile.d[-1] - 1) // 2) for d in profile.d]
    budget = budgets[0]
    top = max(l for l, b in enumerate(budgets) if b == budget)
    assert top == (0 if profile.mode == "msr" else profile.q - 1)
    rep = _recover_repair(profile)(z, batches[budget + 1:], profile)
    assert not rep.ok and rep.y is None and rep.corrupted == frozenset()
    assert rep.failure == (f"erasure count {budget + 1} exceeds layer-{top} "
                           f"budget {budget}")


# -- layer-wide block algebra against one block at a time -------------------------


def _per_block_regenerate(z, batches, profile, mode, row):
    """Plain/detect repair that solves one block at a time (the reference
    for the layer-wide solve)."""
    F = profile.field
    detect = mode == "detect"
    counts = hmsr.request_counts(profile, "repair", mode, len(batches))
    tilde = []
    for l in range(profile.q):
        d, need, a = profile.d[l], counts[l], profile.alpha[l]
        helpers = _window_order(batches, l)[:need]
        if len(helpers) < need:
            raise NotEnoughHelpers(f"{'detect ' if detect else ''}layer {l} "
                                   f"needs {need} helpers, got {len(helpers)}")
        ids = [b.helper_id for b in helpers]
        V = [row(g, l) for g in ids]
        if detect and not det_nonzero(F, V[1:]):
            raise SingularSystem(f"{d}x{d} system singular")
        layer_row = []
        for t in range(profile.blocks(l)):
            p = [b.symbols[(l, t)] for b in helpers]
            try:
                x = solve_square(F, V[:d], p[:d])
            except SingularSystem:
                if detect:
                    raise
                raise SingularSystem(
                    f"repair window {ids} singular at layer {l}") from None
            if detect and mat_vec(F, V[d:], x) != p[d:]:
                return hmsr.Report(mode=mode, ok=False,
                                   alarm={"layer": l, "block": t})
            if profile.mode == "msr":
                x = vec_mat(F, [1, profile.lam[l][z]], [x[:a], x[a:]])
            layer_row.extend(x)
        tilde.append(layer_row)
    return hmsr.Report(mode=mode, ok=True,
                       y=mat_mul(F, profile.points.basis(z), tilde))


def _repair_outcomes(profile, z, batches, mode):
    """(engine outcome, per-block outcome): the Report, or an
    HrgcError's type and text."""
    msr = profile.mode == "msr"
    engine = getattr(hmsr if msr else hmbr,
                     f"regenerate_{'' if msr else 'mbr_'}{mode}")
    row = profile.nu_row if msr else profile.mu_row

    def run(call):
        try:
            return call()
        except HrgcError as exc:
            return type(exc).__name__, str(exc)
    return (run(lambda: engine(z, batches, profile)),
            run(lambda: _per_block_regenerate(z, batches, profile, mode, row)))


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_layer_repair_matches_the_per_block_solve(prof_name, request):
    """Every failed node, in plain and detect; then one perturbed help
    symbol: the same report, and detect names its (layer, block)."""
    profile = request.getfixturevalue(prof_name)
    F, n = profile.field, profile.n_nodes
    nodes = encode_profile(profile, random_message(profile, 61))
    for mode in ("plain", "detect"):
        for z in range(n):
            batches = repair_batches(profile, nodes, z, mode)
            got, want = _repair_outcomes(profile, z, batches, mode)
            assert got == want and got.ok and got.y == nodes[z].y, (mode, z)

    rng = random.Random(prof_name)
    alarms = 0
    for trial in range(30):
        z = rng.randrange(n)
        mode = ("plain", "detect")[trial % 2]
        batches = repair_batches(profile, nodes, z, mode)
        i = rng.randrange(len(batches))
        l = rng.randrange(batches[i].level + 1)
        t = rng.randrange(profile.blocks(l))
        symbols = dict(batches[i].symbols)
        symbols[(l, t)] = F.add(symbols[(l, t)], rng.randrange(1, F.order))
        batches[i] = hmsr.HelpSymbolBatch(batches[i].helper_id,
                                          batches[i].level, symbols=symbols)
        got, want = _repair_outcomes(profile, z, batches, mode)
        assert got == want, (trial, z, mode, l, t)
        if mode == "detect" and not got.ok:
            assert got.alarm == {"layer": l, "block": t}
            alarms += 1
    assert alarms >= 10


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr", "q5_msr"])
def test_msr_repair_map_is_the_window_inverse(prof_name, request):
    """For every target z and layer l of a detect repair: the closed-form
    map of the window's help symbols R gives node z's layer rows, and they
    are the rows of V^-1 R mixed by lambda_l(x_z) (V the window's nu rows);
    the extra helper's Lagrange weights are nu_e V^-1, none zero."""
    profile = request.getfixturevalue(prof_name)
    F, n = profile.field, profile.n_nodes
    nodes = encode_profile(profile, random_message(profile, 64))
    for z in range(n):
        truth = [list(r) for r in hmsr.tilde_rows(profile, nodes[z],
                                                  profile.q - 1)]
        batches = repair_batches(profile, nodes, z, "detect")
        for l, (d, a) in enumerate(zip(profile.d, profile.alpha)):
            helpers = _window_order(batches, l)
            ids = [b.helper_id for b in helpers]
            R = [[b.symbols[key] for key in profile.help_keys[l]]
                 for b in helpers[:d]]
            xs = [profile.x_value(g) for g in ids[:d]]
            deltas = hmsr._deltas(F, xs)
            rows = mat_mul(F, hmsr._remainder_map(
                F, xs, deltas, hmsr._lambda_divisor(profile, z, l)), R)
            eye = [[int(i == j) for j in range(d)] for i in range(d)]
            inv = solve_square(F, [profile.nu_row(g, l) for g in ids[:d]], eye)
            X = mat_mul(F, inv, R)
            assert rows == [F.axpy(X[j], profile.lam[l][z], X[a + j])
                            for j in range(a)], (z, l)
            assert list(hmsr._interleave(rows)) == truth[l], (z, l)
            weights, = hmsr._lagrange_weights(
                F, xs, deltas, [profile.x_value(ids[d])])
            assert weights == vec_mat(F, profile.nu_row(ids[d], l), inv)
            assert all(weights), (z, l)


@pytest.mark.parametrize("prof_name", FIXTURES)
@pytest.mark.parametrize("shifted", [False, True])
def test_layer_repair_singular_window_matches_the_per_block_solve(
        prof_name, shifted, request, monkeypatch):
    """A repeated encoding row makes a layer's window singular: the same
    exception type and text as the per-block solve, in plain and detect.
    ``shifted`` repeats a row of the shifted detect window only.  An MSR
    window reads no nu row (its map is Lagrange over the helpers' distinct
    x-values, and no loadable profile has a singular nu window:
    ``test_matrices.py::test_every_nu_window_is_regular``), so the MSR
    repair stays exact where the per-block solve of the patched rows
    raises."""
    profile = request.getfixturevalue(prof_name)
    msr = profile.mode == "msr"
    name = "nu_row" if msr else "mu_row"
    real = getattr(profile, name)
    nodes = encode_profile(profile, random_message(profile, 62))
    z, l = 0, 1
    d = profile.d[l]
    # layer l's detect helpers; the plain window is the first d of them
    ids = [b.helper_id for b in _window_order(
        repair_batches(profile, nodes, z, "detect"), l)]
    copy, source = (ids[d], ids[1]) if shifted else (ids[1], ids[0])

    def row(g, j):
        return real(source if (g, j) == (copy, l) else g, j)

    seen = set()
    for mode in ("plain", "detect"):
        batches = repair_batches(profile, nodes, z, mode)
        monkeypatch.setattr(profile, name, row)
        got, want = _repair_outcomes(profile, z, batches, mode)
        monkeypatch.undo()
        if msr:
            # the per-block solve reads the patched rows, the engine none
            assert got.ok and got.y == nodes[z].y, (mode, shifted)
        else:
            assert got == want, (mode, shifted)
        seen.add(want if isinstance(want, tuple) else "ok")
    detect_text = ("SingularSystem", f"{d}x{d} system singular")
    if shifted:
        assert seen == {"ok", detect_text}
    else:
        assert seen == {detect_text, ("SingularSystem",
                        f"repair window {ids[:d]} singular at layer {l}")}


def _per_block_reconstruct(batches, profile, mode):
    """Plain/detect reconstruction that extracts one block at a time (the
    reference for the layer-wide extraction): the report's (ok, alarm,
    message)."""
    F = profile.field
    msr = profile.mode == "msr"
    detect = mode == "detect"
    counts = hmsr.request_counts(profile, "reconstruct", mode, len(batches))
    s, t_ = [[[] for _ in range(profile.q)] for _ in range(2)]
    for l in range(profile.q):
        k, a = profile.k[l], profile.alpha[l]
        resp = _window_order(batches, l)[:counts[l]]
        ids = [b.helper_id for b in resp]
        for t in range(profile.blocks(l)):
            R = [b.rows[l][t * a:(t + 1) * a] for b in resp]
            if msr:
                S, T = _window_st(R[:k], ids[:k], l, profile)
                asym = None
            else:
                S, T, asym = _window_m(
                    F, [profile.mu_row(g, l) for g in ids[:k]], k, R[:k])
            if asym is not None:
                if not detect:
                    raise AsymmetryDetected(
                        "S block asymmetric (corrupt responses)")
                return False, {"layer": l, "block": t}, None
            if detect:
                if msr:
                    again = vec_mat(F, profile.nu_row(ids[k], l), S + T)
                else:
                    again = vec_mat(F, profile.mu_row(ids[k], l),
                                    hmbr._join(S, T))
                if again != list(R[k]):
                    return False, {"layer": l, "block": t}, None
            s[l].append(S)
            t_[l].append(T)
    return True, None, reference_message(s, t_, profile)


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_layer_extraction_matches_the_per_block_extractors(prof_name, request):
    """The window extractor on a whole layer returns, block by block, what
    it returns on each block alone, which is the message.  One perturbed
    symbol in block t > 0 gives the per-block outcome: plain raises the same
    AsymmetryDetected text or returns the same message, and detect alarms
    at (layer, t).  Two perturbed blocks of one layer, a re-encoding
    mismatch and an asymmetric MBR block in either order, give the
    per-block outcome too: detect alarms at the first of them."""
    profile = request.getfixturevalue(prof_name)
    F = profile.field
    msr = profile.mode == "msr"
    window = hmsr._st_window if msr else hmbr._m_window
    message = random_message(profile, 63)
    truth = (hmsr.arrange_st if msr else hmbr.arrange_m)(message, profile)
    nodes = encode_profile(profile, message)
    stack = [hmsr.tilde_rows(profile, s, profile.q - 1) for s in nodes]

    def extract_lists(R):
        S, T, asym = extract(R)
        return [list(r) for r in S], [list(r) for r in T], asym

    for l in range(profile.q):
        a, k = profile.alpha[l], profile.k[l]
        ids = list(range(1, k + 1))
        extract = window(profile, l, ids)
        assert extract_lists([stack[g][l] for g in ids]) == (
            truth.s[l], truth.t_[l], None)
        for t in range(profile.blocks(l)):
            assert extract_lists([stack[g][l][t * a:(t + 1) * a]
                                  for g in ids]) == (
                *block(truth, profile, l, t), None)

    rng = random.Random(prof_name)
    outcomes = {"plain": set(), "detect": set()}
    for trial in range(40):
        mode = ("plain", "detect")[trial % 2]
        batches = recon_batches(profile, nodes, mode)
        l = rng.randrange(1, profile.q) if trial % 4 < 2 else 0
        a, w = profile.alpha[l], profile.blocks(l)
        resp = _window_order(batches, l)
        i = batches.index(resp[rng.randrange(len(resp))])
        t = rng.randrange(1, w)
        rows = {j: bytearray(r) for j, r in batches[i].rows.items()}
        c = t * a + rng.randrange(a)
        rows[l][c] = F.add(rows[l][c], rng.randrange(1, F.order))
        batches[i] = hmsr.HelpSymbolBatch(batches[i].helper_id,
                                          batches[i].level, rows=rows)
        engine = getattr(hmsr if msr else hmbr,
                         f"reconstruct_{'' if msr else 'mbr_'}{mode}")
        got = _outcome(lambda: engine(batches, profile))
        want = _outcome(lambda: _per_block_reconstruct(batches, profile, mode))
        assert got == want, (trial, mode, l, t)
        outcomes[mode].add(got[0])
        if mode == "detect":
            assert got[:2] == (False, {"layer": l, "block": t}), (trial, l, t)
    # plain never notices; MBR windows carry redundancy, so it can raise
    assert outcomes["plain"] <= {True, "AsymmetryDetected"}
    assert outcomes["detect"] == {False}

    # two blocks of one layer in detect, in either order: a window symbol
    # that leaves its block asymmetric (MBR; MSR absorbs it into another
    # symmetric block) and a symbol of the extra row, which re-encodes wrong
    def poke(batches, g, l, c, delta):
        out = []
        for b in batches:
            if b.helper_id == g:
                rows = {j: bytearray(r) for j, r in b.rows.items()}
                rows[l][c] = F.add(rows[l][c], delta)
                b = hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows)
            out.append(b)
        return out

    plain = recon_batches(profile, nodes, "plain")
    detect = recon_batches(profile, nodes, "detect")
    engine = hmsr.reconstruct_detect if msr else hmbr.reconstruct_mbr_detect
    # a k = 1 MBR block has a 1 x 1 S, never asymmetric
    layers = [l for l in range(profile.q) if msr or profile.k[l] > 1]
    for trial in range(8):
        l = rng.choice(layers)
        a, k = profile.alpha[l], profile.k[l]
        ids = [b.helper_id for b in _window_order(detect, l)]
        first, second = sorted(rng.sample(range(profile.blocks(l)), 2))
        skew, wrong = (second, first) if trial % 2 else (first, second)
        for _ in range(50):
            g, c = rng.choice(ids[:k]), skew * a + rng.randrange(min(a, k))
            delta = rng.randrange(1, F.order)
            if msr or _outcome(lambda: _per_block_reconstruct(
                    poke(plain, g, l, c, delta), profile, "plain"))[0] == \
                    "AsymmetryDetected":
                break
        else:
            pytest.fail(f"no asymmetric symbol in layer {l} block {skew}")
        bad = poke(poke(detect, g, l, c, delta), ids[k], l,
                   wrong * a + rng.randrange(a), rng.randrange(1, F.order))
        got = _outcome(lambda: engine(bad, profile))
        want = _outcome(lambda: _per_block_reconstruct(bad, profile, "detect"))
        assert got == want, (trial, l, skew, wrong)
        assert got[0] is False and got[1]["layer"] == l
        assert got[1]["block"] == first or msr, (trial, l, skew, wrong)


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_node_data_is_the_hermitian_curve_code(prof_name, request):
    """Column c of every node holds the layered curve codeword of column c
    of the message layers: for MBR the codeword of the blocks M, for MSR
    U_g + Lambda_g E_g with U and E the codewords of S and T and Lambda_g
    the layers' lambda_l(x_g), which is the codeword of the layers
    s_l + lambda_l t_l (lambda_l t_l, a polynomial in x, is again a curve
    function, of higher degree)."""
    profile = request.getfixturevalue(prof_name)
    F, q = profile.field, profile.q
    message = random_message(profile, 64)
    nodes = encode_profile(profile, message)
    if profile.mode == "msr":
        st = hmsr.arrange_st(message, profile)

        def layer_polys(col):
            out = []
            for l, lam in enumerate(profile.lam_poly):
                s = [r[col] for r in st.s[l]]
                t = [r[col] for r in st.t_[l]]
                f = s + [0] * len(s)
                for i, ti in enumerate(t):
                    for j, lj in enumerate(lam):
                        f[i + j] = F.add(f[i + j], F.mul(ti, lj))
                out.append(f)
            return out
    else:
        m = hmbr.arrange_m(message, profile)
        M = [hmbr._join(m.s[l], m.t_[l]) for l in range(q)]

        def layer_polys(col):
            return [[r[col] for r in M[l]] for l in range(q)]
    for col in range(profile.A):
        word = encode_column(layer_polys(col), profile.points)
        for g in range(profile.n_nodes):
            for slot in range(q):
                assert nodes[g].y[slot][col] == word[g * q + slot], (g, slot, col)


# -- the plain/detect loop of both operations ------------------------------------


def _entry(profile, op, mode):
    """The engine entry point for (code, op, mode), with the repair's failed
    node bound to 0."""
    msr = profile.mode == "msr"
    name = ("regenerate" if op == "repair" else "reconstruct") + (
        f"_{mode}" if msr else f"_mbr_{mode}")
    fn = getattr(hmsr if msr else hmbr, name)
    return (lambda batches: fn(0, batches, profile)) if op == "repair" else (
        lambda batches: fn(batches, profile))


def _plan_batches(profile, nodes, op, mode):
    return (repair_batches(profile, nodes, 0, mode) if op == "repair"
            else recon_batches(profile, nodes, mode))


@pytest.mark.parametrize("prof_name", FIXTURES)
@pytest.mark.parametrize("op", ["repair", "reconstruct"])
@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_plain_detect_names_the_short_layer(prof_name, op, mode, request):
    """A batch list one responder short at layer l (its highest-id
    responder there drops to level l - 1, or out at layer 0) raises one
    NotEnoughHelpers text, the same for both operations and both modes."""
    profile = request.getfixturevalue(prof_name)
    nodes = encode_profile(profile, random_message(profile, 65))
    need = hmsr.request_counts(profile, op, mode, profile.n_nodes)
    for l in range(profile.q):
        batches = _plan_batches(profile, nodes, op, mode)
        short = _window_order(batches, l)[-1]
        batches.remove(short)
        if l:
            batches.append(hmsr.HelpSymbolBatch(
                short.helper_id, l - 1, symbols=short.symbols, rows=short.rows))
        with pytest.raises(NotEnoughHelpers) as exc:
            _entry(profile, op, mode)(batches)
        assert str(exc.value) == (
            f"layer {l} needs {need[l]} helpers, got {need[l] - 1}")


def _count_calls(monkeypatch, original, calls):
    """Rebind every hrgc module's name for ``original`` to a wrapper that
    appends each call's positional arguments to ``calls``."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("hrgc."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)


def test_frozen_bench_names_resolve(q3_msr, q3_mbr, monkeypatch):
    """The traced bench rebinds every SPANNED name of ``bench/tracer.py`` by
    ``getattr`` on its hrgc module, and needs one ``sim.cluster_init`` to
    call its code's arrange name once, through the module global."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("frozen_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _name, module, attr in tracer.SPANNED:
        obj = importlib.import_module(f"hrgc.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)

    message = {p.mode: random_message(p, 83) for p in (q3_msr, q3_mbr)}
    arranged = {"msr": [], "mbr": []}
    _count_calls(monkeypatch, hmsr.arrange_st, arranged["msr"])
    _count_calls(monkeypatch, hmbr.arrange_m, arranged["mbr"])
    for profile in (q3_msr, q3_mbr):
        sim.cluster_init(profile, message[profile.mode])
        assert len(arranged[profile.mode]) == 1, profile.mode
    assert [len(calls) for calls in arranged.values()] == [1, 1]


@pytest.mark.parametrize("prof_name", FIXTURES)
def test_plain_detect_engine_reach(prof_name, request, monkeypatch):
    """The names that the traced bench requires honest plain and detect
    runs to reach: an MBR repair solves through ``linalg.solve_square``
    once per layer, one d_l x d_l window each (an MSR repair builds its
    windows in closed form and solves none), a repair never calls
    ``decoder.decode``, and an MSR reconstruction builds one ExtractContext
    per layer, in layer order."""
    profile = request.getfixturevalue(prof_name)
    message = random_message(profile, 66)
    nodes = encode_profile(profile, message)
    solves, decodes, contexts = [], [], []
    _count_calls(monkeypatch, solve_square, solves)
    _count_calls(monkeypatch, decode, decodes)
    real_init = hmsr.ExtractContext.__init__

    def init(self, p, l, ids):
        contexts.append(l)
        real_init(self, p, l, ids)

    monkeypatch.setattr(hmsr.ExtractContext, "__init__", init)
    for mode in ("plain", "detect"):
        batches = _plan_batches(profile, nodes, "repair", mode)
        solves.clear()
        rep = _entry(profile, "repair", mode)(batches)
        assert rep.ok and rep.y == nodes[0].y, mode
        assert decodes == [], mode
        assert [len(args[1]) for args in solves] == (
            [] if profile.mode == "msr" else list(profile.d)), mode

        batches = _plan_batches(profile, nodes, "reconstruct", mode)
        contexts.clear()
        rep = _entry(profile, "reconstruct", mode)(batches)
        assert rep.ok and rep.message == message, mode
        assert decodes == [], mode
        assert contexts == (list(range(profile.q)) if profile.mode == "msr"
                            else []), mode
