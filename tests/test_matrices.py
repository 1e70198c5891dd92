import hashlib
import random
from itertools import combinations

import pytest

from hrgc import hmsr
from hrgc.errors import (
    InvalidAlpha,
    InvalidK,
    InvalidParams,
    LambdaSearchFailed,
)
from hrgc.curve import group_x_value
from hrgc.field import SUPPORTED_Q, field_new
from hrgc.linalg import det_nonzero, left_null_space, mat_inv
from hrgc.matrices import (
    profile_digest,
    profile_from_text,
    profile_new,
    profile_to_text,
    select_delta,
)


def test_profile_q4_paper_parameters(q4_msr):
    p = q4_msr
    assert p.kappa == (10, 9, 7, 6)
    assert p.d == (12, 10, 8, 6)
    assert p.k == (7, 6, 5, 4)
    assert p.A == 60
    assert p.B == 1320


def test_profile_q3(q3_msr):
    assert q3_msr.d == (6, 4, 2)
    assert q3_msr.A == 6
    assert q3_msr.B == 54


def test_profile_mbr_q4(q4_mbr):
    assert q4_mbr.d == (6, 5, 4, 3)
    assert q4_mbr.B == 660


def test_profile_mbr_q3(q3_mbr):
    # per-layer payloads: 10 + 9 + 6
    assert q3_mbr.B == 25


def test_alpha_validation():
    with pytest.raises(InvalidAlpha):
        profile_new("msr", 3, 8, (3, 3, 1), seed=1)
    with pytest.raises(InvalidAlpha):
        profile_new("msr", 3, 8, (4, 2, 1), seed=1)   # kappa(0)=3
    with pytest.raises(InvalidAlpha):
        profile_new("msr", 3, 30, (4, 3, 2), seed=1)  # d_0=8 > q^2-2=7
    with pytest.raises(InvalidAlpha):
        profile_new("msr", 3, 8, (3, 2), seed=1)


def test_k_validation():
    with pytest.raises(InvalidK):
        profile_new("mbr", 3, 8, (3, 2, 1), k=(4, 2, 1), seed=1)
    with pytest.raises(InvalidK):
        profile_new("mbr", 3, 8, (3, 2, 1), k=(1, 2, 1), seed=1)
    with pytest.raises(InvalidK):
        profile_new("mbr", 3, 8, (3, 2, 1), seed=1)
    with pytest.raises(InvalidK):
        profile_new("msr", 3, 8, (3, 2, 1), k=(3, 2, 1), seed=1)


def test_lambda_distinct_and_deterministic(q3_msr, q4_msr):
    # lambda_0 permutes the x-values, and the choice is a function of the
    # parameters
    for p in (q3_msr, q4_msr):
        assert sorted(p.lam[0]) == list(range(p.n_nodes))
    again = profile_new("msr", 3, 8, (3, 2, 1), seed=2)
    assert again.lam == q3_msr.lam and again.lam_poly == q3_msr.lam_poly


def _lam_bytes(profile):
    return bytes(v for vals in profile.lam for v in vals)


# sha256 of the tables lam[l][g] = lambda_l(x_g), layers in order; they fix
# every MSR node file, so a setup change that moves them fails here.  MBR
# carries no lambda: the empty table.  q4_msr and q5_msr are also the
# bench's MSR profiles.
LAM_SHA256 = {
    "q3_msr":
        "ce6e1c76f6c1d4df156cedac7a4e751940ba557337127e5526cb56d077bb4edd",
    "q4_msr":
        "59867e0026f6c9c73b9db84aa5693f5df8ffb2ef4b3082964ffd783f514b5606",
    "q3_mbr": hashlib.sha256(b"").hexdigest(),
    "q4_mbr": hashlib.sha256(b"").hexdigest(),
    "q5_msr":
        "9a5c4b2da633ece861ab9cf19bbaf5e3b1bb3392429601689935e54674cf8e25",
}


@pytest.mark.parametrize("name", sorted(LAM_SHA256))
def test_lambda_pinned(name, request):
    profile = request.getfixturevalue(name)
    assert hashlib.sha256(_lam_bytes(profile)).hexdigest() == LAM_SHA256[name]


# the same pin on MSR profiles no fixture makes: other seeds of the q=4 and
# q=5 profiles, and q=8 (m=63, alpha 8..1), whose layer 1 needs a draw
LAM_SHA256_BY_ARGS = {
    (8, 63, (8, 7, 6, 5, 4, 3, 2, 1), 1):
        "32ed73c236df1d52dccd0eba75ab7746778ee68484c45c3aa0ebc89158d7c217",
    (4, 37, (6, 5, 4, 3), 2):
        "1f9fdf7954f907649405aa97531dc35642e4b961496a647d9036b5ec83edc416",
    (4, 37, (6, 5, 4, 3), 3):
        "4cb073c20dbe927e0b9b2a8893d6aafe5917e09be2d2ddd4e64036af932fa70d",
    (5, 34, (7, 6, 5, 4, 3), 2):
        "46ffe97d9e757276a74d1cb53e7d44471869143d6249eb268121ca2ff3d7298a",
}


@pytest.mark.parametrize("q,m,alpha,seed", sorted(LAM_SHA256_BY_ARGS))
def test_lambda_pinned_beyond_the_fixtures(q, m, alpha, seed):
    profile = profile_new("msr", q, m, alpha, seed=seed)
    assert (hashlib.sha256(_lam_bytes(profile)).hexdigest()
            == LAM_SHA256_BY_ARGS[q, m, alpha, seed])


# sha256 of profile_to_text, which profile.txt holds and whose first 8
# bytes of SHA-256 every node file embeds.
PROFILE_TEXT_SHA256 = {
    "q3_msr": "f434c3ac36e765272294886aad13325c17accd21ba976d5c86c8023712de258b",
    "q4_msr": "481a8eb905a3937d7f1acbdd158c89157c5a5d974874df44cfc9b15037d52f25",
    "q3_mbr": "a1852759d59f695300fff4e2ea0ff7877354ee7988a1da89fbeee1f91cbcdbc3",
    "q4_mbr": "caf4ca32d91c0a8dd81af8f45304dbe654ef30a1cd39908661954136fd02fece",
    "q5_msr": "541daf6d1464946444ce09f409c3af1b0c7ceaf7541d01be1f633638c3e32779",
    "q5_mbr": "1c8fadbeb5254d522e7d48987c61bc19073fed368eeafaeec346bfac518b79b7",
}


@pytest.mark.parametrize("name", sorted(PROFILE_TEXT_SHA256))
def test_profile_text_pinned(name, request):
    text = profile_to_text(request.getfixturevalue(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PROFILE_TEXT_SHA256[name]


def test_select_delta_rejects_impossible_draws(monkeypatch):
    # the draw budget: x^6 does not permute GF(16), so layer 0 of the q=4
    # profile is drawn; with one draw fewer than the first fitting draw N
    # the selection fails naming the layer, and with exactly N it returns
    # that draw.  N is found with the rules stated from scratch.
    import hrgc.matrices as mx
    F = field_new(4)
    xs = [group_x_value(F, g) for g in range(F.order)]
    alpha, seed = (6, 5, 4, 3), 1
    rng = random.Random(seed)

    def fits(poly):
        vals = [_poly_at(F, poly, x) for x in xs]
        return (max(vals.count(v) for v in vals) == 1
                and len(set(vals[:9])) == 9)

    assert not fits([0] * 6 + [1])
    for n_draws in range(1, mx.MAX_LAMBDA_DRAWS + 1):
        poly = [rng.randrange(F.order) for _ in range(6)] + [1]
        if fits(poly):
            break
    assert n_draws == 1746
    monkeypatch.setattr(mx, "MAX_LAMBDA_DRAWS", n_draws - 1)
    with pytest.raises(LambdaSearchFailed, match="^layer 0: "):
        select_delta(F, xs, alpha, "msr", seed=seed)
    monkeypatch.setattr(mx, "MAX_LAMBDA_DRAWS", n_draws)
    assert select_delta(F, xs, alpha, "msr", seed=seed)[0] == tuple(poly)
    monkeypatch.undo()
    assert (select_delta(F, xs, alpha, "msr", seed=seed)
            == select_delta(F, xs, alpha, "msr", seed=seed))
    # MBR carries no lambda
    assert select_delta(F, xs, alpha, "mbr", seed=seed) == ()


def _poly_at(F, f, x):
    v = 0
    for c in reversed(f):
        v = F.add(F.mul(v, x), c)
    return v


def test_x_values_pairwise_distinct():
    for q in SUPPORTED_Q:
        F = field_new(q)
        xs = [group_x_value(F, g) for g in range(F.order)]
        assert len(set(xs)) == F.order


def test_planned_repair_windows_invertible(q3_msr, q4_msr):
    # every single failure's plain window and detect-shifted window, as the
    # planner stages them, is regular on every layer
    for p in (q3_msr, q4_msr):
        for z in range(p.n_nodes):
            live = [g for g in range(p.n_nodes) if g != z]
            plans = {mode: hmsr.staged_request_plan(p, "repair", mode, live)
                     for mode in ("plain", "detect")}
            for l, d in enumerate(p.d):
                ids = {mode: sorted(g for g, j in plan if j >= l)
                       for mode, plan in plans.items()}
                assert len(ids["plain"]) == d and len(ids["detect"]) == d + 1
                for win in (ids["plain"], ids["detect"][1:]):
                    assert det_nonzero(p.field, [p.nu_row(g, l) for g in win])


def test_mu_rows_and_nu_rows(q3_msr):
    p = q3_msr
    F = p.field
    # W row 0 is [1, 0, ..., 0] (evaluation at x=0)
    for l in range(3):
        assert list(p.mu_row(0, l)) == [1] + [0] * (p.alpha[l] - 1)
    # a V row is [mu | lam*mu]
    for g in (0, 4, 8):
        for l in range(3):
            row = p.nu_row(g, l)
            mu = p.mu_row(g, l)
            assert row == list(mu) + [F.mul(p.lam[l][g], v) for v in mu]
    # V rows 0..d_l - 1 of layer l are square and invertible
    for l in range(3):
        d = p.d[l]
        square = [p.nu_row(g, l) for g in range(d)]
        assert len(square) == d == len(square[0])
        assert mat_inv(F, square)


def test_any_alpha_rows_of_phi_independent_q3(q3_msr):
    p = q3_msr
    for l in range(3):
        a = p.alpha[l]
        phi = p.phi(l)
        for sub in combinations(range(9), a):
            assert det_nonzero(p.field, [phi[g] for g in sub])


def test_profile_serialization_round_trip(q3_msr, q4_mbr):
    for p in (q3_msr, q4_mbr):
        text = profile_to_text(p)
        again = profile_from_text(text)
        assert profile_to_text(again) == text
        assert again.lam == p.lam
        assert again.d == p.d
        assert profile_digest(again) == profile_digest(p)
        assert text.endswith("\n") and "\r" not in text


def test_digest_changes_with_seed(q3_msr):
    # the seed is part of the document even where it fixes no draw
    other = profile_new("msr", 3, 8, (3, 2, 1), seed=5)
    assert other.lam == q3_msr.lam
    assert profile_digest(other) != profile_digest(q3_msr)


def _edited(profile, key, value):
    lines = profile_to_text(profile).splitlines()
    kept = [ln for ln in lines if not ln.startswith(f"{key}=")]
    if value is not None:
        kept.append(f"{key}={value}")
    return "\n".join(kept) + "\n"


@pytest.mark.parametrize("key,value", [
    ("seed", None),
    ("lam_poly", None),
    ("seed", "one"),
    ("alpha", "3,2,x"),
    ("mode", "rs"),
    ("A", "12"),
    ("B", "55"),
    ("d", "6,4,3"),
    ("kappa", "3,2,2"),
    ("lam", "0,1,2,3,4,5,6,7,7"),
    ("lam", "0,1,2,3,4,5,6,7"),
    ("lam", "0,1,2,3,4,5,6,7,9"),
    ("lam_poly", "0,0,0,1;0,0,1"),          # a layer short
    ("lam_poly", "0,0,1;0,0,1;0,1"),        # degree 2 at layer 0
    ("lam_poly", "0,0,0,2;0,0,1;0,1"),      # not monic
    ("lam_poly", "0,0,0,1;0,9,1;0,1"),      # not a symbol of GF(9)
    ("lam_poly", "0,0,0,1;0,0,1;x"),
    ("lam_poly", "0,1,0,1;0,0,1;0,1"),      # x^3 + x: not a permutation
])
def test_profile_from_text_rechecks_every_field(q3_msr, key, value):
    with pytest.raises(InvalidParams):
        profile_from_text(_edited(q3_msr, key, value))


def test_profile_from_text_refuses_the_old_coefficient_permutation(q3_msr):
    # a document of the one-permutation format: its node files were encoded
    # with other coefficients, so it is refused by name, not reinterpreted
    text = _edited(q3_msr, "lam_poly", None) + "lam=" + ",".join(
        map(str, range(9))) + "\n"
    with pytest.raises(InvalidParams, match="lam=, the one coefficient "
                                            "permutation of earlier versions"):
        profile_from_text(text)


def test_mbr_profile_carries_no_lambda(q3_mbr):
    assert q3_mbr.lam_poly == () and q3_mbr.lam == ()
    assert "lam" not in profile_to_text(q3_mbr)


def test_profile_from_text_applies_the_alpha_and_k_rules(q3_msr, q3_mbr):
    with pytest.raises(InvalidK):
        profile_from_text(_edited(q3_msr, "k", "4,3,3"))
    with pytest.raises(InvalidK):
        profile_from_text(_edited(q3_mbr, "k", "1,2,1"))
    with pytest.raises(InvalidAlpha):
        profile_from_text(_edited(q3_mbr, "alpha", "3,3,1"))


# -- what lambda_l of degree alpha_l gives ----------------------------------------


@pytest.mark.parametrize("name,samples", [
    ("q3_msr", None), ("q4_msr", 12_000), ("q5_msr", 12_000)])
def test_every_nu_window_is_regular(name, samples, request):
    # every d_l-subset of a layer's nu rows is regular: all of them at q=3
    # (246), a seeded sample over the layers at q=4 and q=5
    p = request.getfixturevalue(name)
    n = p.n_nodes
    if samples is None:
        subsets = [(l, sub) for l, d in enumerate(p.d)
                   for sub in combinations(range(n), d)]
        assert len(subsets) == 246
    else:
        rng = random.Random(name)
        subsets = [(l, rng.sample(range(n), p.d[l]))
                   for l in (rng.randrange(p.q) for _ in range(samples))]
    for l, sub in subsets:
        assert det_nonzero(p.field, [p.nu_row(g, l) for g in sub]), (l, sub)


@pytest.mark.parametrize("name", ["q3_msr", "q4_msr", "q5_msr"])
def test_detect_repair_windows_are_blind_free(name, request):
    # every single failure's detect window (d_l + 1 helpers, as planned) has
    # one left null vector, with no zero entry: the one-row check sees a lie
    # at every helper
    p = request.getfixturevalue(name)
    checked = 0
    for z in range(p.n_nodes):
        live = [g for g in range(p.n_nodes) if g != z]
        plan = hmsr.staged_request_plan(p, "repair", "detect", live)
        for l, d in enumerate(p.d):
            ids = sorted(g for g, j in plan if j >= l)
            h = left_null_space(p.field, [p.nu_row(g, l) for g in ids])
            assert len(h) == 1 and all(h[0]), (z, l)
            checked += 1
    assert checked == p.n_nodes * p.q


@pytest.mark.parametrize("name,args", [
    ("q3_msr", None), ("q4_msr", None), ("q5_msr", None),
    ("q8_msr", ("msr", 8, 63, (8, 7, 6, 5, 4, 3, 2, 1)))])
def test_lambda_meets_the_fibre_and_window_rules(name, args, request):
    # no value of lambda_l at more than 1 + alpha_0 - alpha_l nodes (lambda_0
    # permutes the x-values), lambda_l distinct at nodes 0..alpha_l + 2, and
    # lambda_l monic of degree alpha_l
    p = (profile_new(*args, seed=1) if args
         else request.getfixturevalue(name))
    F = p.field
    for l, (a, poly) in enumerate(zip(p.alpha, p.lam_poly)):
        assert len(poly) == a + 1 and poly[-1] == 1
        vals = p.lam[l]
        assert vals == tuple(_poly_at(F, poly, p.x_value(g))
                             for g in range(p.n_nodes))
        assert max(vals.count(v) for v in vals) <= 1 + p.alpha[0] - a, l
        assert len(set(vals[:a + 3])) == a + 3, l
