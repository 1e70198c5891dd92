import random
from fractions import Fraction

import pytest

from conftest import (
    block,
    corrupt_recon,
    corrupt_repair,
    encode_profile,
    random_message,
    recon_batches,
    repair_batches,
)
from hrgc import hmbr, hmsr
from hrgc.errors import LengthMismatch
from hrgc.linalg import mat_inv, vec_mat


def test_arrange_q4_k_equals_alpha(q4_mbr):
    # T blocks are empty: pure symmetric-S layout, B = 660
    msg = random_message(q4_mbr, 1)
    m = hmbr.arrange_m(msg, q4_mbr)
    assert q4_mbr.B == 660
    for l in range(4):
        for t in range(q4_mbr.blocks(l)):
            S, T = block(m, q4_mbr, l, t)
            assert T == [[] for _ in range(q4_mbr.k[l])]
            blk = [list(r) for r in hmbr._join(S, T)]
            assert len(blk) == q4_mbr.alpha[l]
            assert blk == [list(r) for r in zip(*blk)]


def test_arrange_q3_block_symbol_count(q3_mbr):
    # layer 0: 2x2 S (3 symbols) + 2x1 T (2 symbols) = 5 = k(2a-k+1)/2
    msg = random_message(q3_mbr, 2)
    m = hmbr.arrange_m(msg, q3_mbr)
    k, a = q3_mbr.k[0], q3_mbr.alpha[0]
    assert k * (2 * a - k + 1) // 2 == 5
    S, T = block(m, q3_mbr, 0, 0)
    assert S == [[msg[0], msg[1]], [msg[1], msg[2]]]
    assert T == [[msg[3]], [msg[4]]]
    blk = [list(r) for r in hmbr._join(S, T)]
    assert blk == [list(r) for r in zip(*blk)]
    assert blk[2][2] == 0


def test_arrange_zero_and_length(q3_mbr):
    m = hmbr.arrange_m([0] * q3_mbr.B, q3_mbr)
    assert all(v == 0 for M in m.s + m.t_ for r in M for v in r)
    with pytest.raises(LengthMismatch):
        hmbr.arrange_m([0] * (q3_mbr.B + 1), q3_mbr)


def test_arrange_round_trip(q3_mbr, q4_mbr):
    for p in (q3_mbr, q4_mbr):
        msg = random_message(p, 3)
        m = hmbr.arrange_m(msg, p)
        assert hmsr._message(p, list(zip(m.s, m.t_))) == msg


@pytest.mark.parametrize("prof_name", ["q3_mbr", "q4_mbr"])
def test_encode_layer_identity(prof_name, request):
    # row l of B_g^{-1} Y_g equals mu_{g,l} M_{l,*} blockwise
    p = request.getfixturevalue(prof_name)
    F = p.field
    msg = random_message(p, 4)
    m = hmbr.arrange_m(msg, p)
    nodes = encode_profile(p, msg)
    for g in range(p.n_nodes):
        tilde = [list(r) for r in hmsr.tilde_rows(p, nodes[g], p.q - 1)]
        for l in range(p.q):
            a = p.alpha[l]
            mu = p.mu_row(g, l)
            for t in range(p.blocks(l)):
                blk = tilde[l][t * a:(t + 1) * a]
                assert blk == vec_mat(F, mu, hmbr._join(*block(m, p, l, t)))


def test_mbr_point_identity(q3_mbr, q4_mbr):
    # the layer bookkeeping sits exactly on storage == repair download
    from hrgc.capability import layer_equivalents, mbr_point
    for p in (q3_mbr, q4_mbr):
        for l in range(p.q):
            eq = layer_equivalents(p, l)
            alpha_pt, gamma_pt = mbr_point(eq["B"], eq["k"], eq["d"])
            assert alpha_pt == gamma_pt == Fraction(p.A)


def test_encode_zero(q3_mbr):
    nodes = encode_profile(q3_mbr, [0] * q3_mbr.B)
    assert all(all(v == 0 for row in n.y for v in row) for n in nodes)


@pytest.mark.parametrize("prof_name", ["q3_mbr", "q4_mbr"])
def test_regenerate_plain_round_trip(prof_name, request):
    p = request.getfixturevalue(prof_name)
    msg = random_message(p, 5)
    nodes = encode_profile(p, msg)
    for z in range(0, p.n_nodes, 3):
        batches = repair_batches(p, nodes, z, "plain")
        rep = hmbr.regenerate_mbr_plain(z, batches, p)
        assert rep.ok and rep.y == nodes[z].y


def test_regenerate_detect_honest_and_alarm(q3_mbr):
    p = q3_mbr
    msg = random_message(p, 6)
    nodes = encode_profile(p, msg)
    z = 4
    batches = repair_batches(p, nodes, z, "detect")
    rep = hmbr.regenerate_mbr_detect(z, batches, p)
    assert rep.ok and rep.y == nodes[z].y

    helpers = [b.helper_id for b in batches]
    detected = 0
    trials = 300
    for i in range(trials):
        bad = corrupt_repair(batches, {helpers[i % len(helpers)]}, 9,
                             seed=2000 + i)
        rep = hmbr.regenerate_mbr_detect(z, bad, p)
        if not rep.ok:
            assert rep.alarm is not None
            detected += 1
    assert detected / trials >= 1 - 1 / 9


def test_regenerate_recover(q4_mbr):
    # 4 malicious helpers random-corrupting everything: within budget 6
    p = q4_mbr
    msg = random_message(p, 7)
    nodes = encode_profile(p, msg)
    z = 9
    batches = repair_batches(p, nodes, z, "recover")
    helpers = [b.helper_id for b in batches]
    evil = set(random.Random(1).sample(helpers, 4))
    bad = corrupt_repair(batches, evil, 16, seed=71)
    rep = hmbr.regenerate_mbr_recover(z, bad, p)
    assert rep.ok and rep.y == nodes[z].y
    assert rep.corrupted == frozenset(evil)


@pytest.mark.parametrize("prof_name", ["q3_mbr", "q4_mbr"])
def test_reconstruct_plain_round_trip(prof_name, request):
    p = request.getfixturevalue(prof_name)
    for seed in range(3):
        msg = random_message(p, 100 + seed)
        nodes = encode_profile(p, msg)
        rec = hmbr.reconstruct_mbr_plain(recon_batches(p, nodes, "plain"), p)
        assert rec.ok and rec.message == msg


def test_reconstruct_detect_honest_and_alarm(q3_mbr):
    p = q3_mbr
    msg = random_message(p, 8)
    nodes = encode_profile(p, msg)
    batches = recon_batches(p, nodes, "detect")
    rec = hmbr.reconstruct_mbr_detect(batches, p)
    assert rec.ok and rec.message == msg

    responders = [b.helper_id for b in batches]
    alarms = 0
    trials = 120
    for i in range(trials):
        bad = corrupt_recon(batches, {responders[i % len(responders)]}, 9,
                            seed=90 + i)
        rec = hmbr.reconstruct_mbr_detect(bad, p)
        if not rec.ok:
            alarms += 1
    assert alarms / trials >= 1 - 1 / 9


def test_extract_asymmetry_detectable(q3_mbr):
    # unlike the minimum-storage layout, the k_l-response stack here carries
    # redundancy, so corrupt rows can surface as an asymmetric S
    p = q3_mbr
    F = p.field
    msg = random_message(p, 9)
    nodes = encode_profile(p, msg)
    batches = recon_batches(p, nodes, "plain")
    l = 0
    resp = sorted((b for b in batches if b.level >= l),
                  key=lambda b: b.helper_id)[: p.k[l]]
    mu_rows = [list(p.mu_row(b.helper_id, l)) for b in resp]
    R = [b.rows[l][:p.alpha[l]] for b in resp]
    omega_inv = mat_inv(F, [row[:p.k[l]] for row in mu_rows])
    asymmetric = 0
    for row in range(len(R)):
        for col in range(p.alpha[l]):
            bad = [list(r) for r in R]
            bad[row][col] = F.add(bad[row][col], 1)
            _, _, asym = hmbr._extract_m(F, mu_rows, p.k[l], bad, omega_inv)
            asymmetric += asym is not None
    assert asymmetric > 0


def test_rec_m_two_errors_q3(q3_mbr):
    # tau=2, sigma=0 at a k=2 layer: 0 + 4 <= 9 - 2
    p = q3_mbr
    F = p.field
    rng = random.Random(10)
    msg = random_message(p, 11)
    m = hmbr.arrange_m(msg, p)
    l = 0
    a = p.alpha[l]
    truth = hmbr._join(*block(m, p, l, 0))
    blocks = [vec_mat(F, p.mu_row(g, l), truth) for g in range(9)]
    for g in (2, 6):
        blocks[g] = [rng.randrange(9) for _ in range(a)]
    S, T, corrupt = hmbr.rec_m(blocks, frozenset(), l, p)
    assert (S, T) == block(m, p, l, 0)
    assert corrupt == {2, 6}


def test_rec_m_priors_plus_new_q4(q4_mbr):
    # sigma=3 priors + tau=2 new at k_0=6: 3 + 4 <= 10
    p = q4_mbr
    F = p.field
    rng = random.Random(12)
    msg = random_message(p, 13)
    m = hmbr.arrange_m(msg, p)
    l = 0
    a = p.alpha[l]
    truth = hmbr._join(*block(m, p, l, 0))
    blocks = [vec_mat(F, p.mu_row(g, l), truth) for g in range(16)]
    erased = frozenset({1, 8, 15})
    for g in erased:
        blocks[g] = None
    for g in (4, 11):
        blocks[g] = [rng.randrange(16) for _ in range(a)]
    S, T, corrupt = hmbr.rec_m(blocks, erased, l, p)
    assert (S, T) == block(m, p, l, 0)
    assert corrupt == {4, 11}


def test_rec_m_no_errors_matches_plain(q3_mbr):
    p = q3_mbr
    F = p.field
    msg = random_message(p, 14)
    m = hmbr.arrange_m(msg, p)
    l = 1
    truth = hmbr._join(*block(m, p, l, 0))
    blocks = [vec_mat(F, p.mu_row(g, l), truth) for g in range(9)]
    S, T, corrupt = hmbr.rec_m(blocks, frozenset(), l, p)
    assert (S, T) == block(m, p, l, 0) and corrupt == set()


@pytest.mark.parametrize("prof_name", ["q3_mbr", "q4_mbr"])
def test_reconstruct_recover_budgeted(prof_name, request):
    p = request.getfixturevalue(prof_name)
    msg = random_message(p, 15)
    nodes = encode_profile(p, msg)
    batches = recon_batches(p, nodes, "recover")
    tau = 2 if p.q == 3 else 4
    evil = set(random.Random(2).sample(range(p.n_nodes), tau))
    bad = corrupt_recon(batches, evil, p.field.order, seed=16)
    rec = hmbr.reconstruct_mbr_recover(bad, p)
    assert rec.ok and rec.message == msg
    assert rec.corrupted == frozenset(evil)


def test_plain_detect_agree_on_honest_input(q4_mbr):
    p = q4_mbr
    msg = random_message(p, 17)
    nodes = encode_profile(p, msg)
    plain = hmbr.reconstruct_mbr_plain(recon_batches(p, nodes, "plain"), p)
    det = hmbr.reconstruct_mbr_detect(recon_batches(p, nodes, "detect"), p)
    assert plain.message == det.message == msg
