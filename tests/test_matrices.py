import hashlib
import random
from itertools import combinations

import pytest

from hrgc import hmsr
from hrgc.errors import (
    DeltaSearchFailed,
    InvalidAlpha,
    InvalidK,
    InvalidParams,
)
from hrgc.curve import group_x_value
from hrgc.field import SUPPORTED_Q, field_new
from hrgc.linalg import (det_nonzero, left_null_space, mat_inv, null_space,
                         vec_mat)
from hrgc.matrices import (
    CodeProfile,
    _HankelForm,
    _phi_rows,
    _psi_rows,
    profile_digest,
    profile_from_text,
    profile_new,
    profile_to_text,
    select_delta,
    verify_delta,
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
    for p in (q3_msr, q4_msr):
        assert sorted(p.lam) == list(range(p.n_nodes))
    again = profile_new("msr", 3, 8, (3, 2, 1), seed=2)
    assert again.lam == q3_msr.lam


# sha256 of bytes(lam) as the per-window determinant enumeration selected
# it; lam fixes every node file, so a setup change that moves it fails here.
# q4_msr and q5_msr are also the bench's MSR profiles.
LAM_SHA256 = {
    "q3_msr": "5a8ec84cd145e13a0c5dc38e88d00bc609f866c6777be427644e2583f81e0a8a",
    "q4_msr": "cddc46fca14a6d5c17dd2352fe95c9698278add1811c23ccb9957412cebb17fe",
    "q3_mbr": "8954c064c18a6871cf3c9fcb2f87ec6c5ac43726c6180f191e15ef50ccc5e2dd",
    "q4_mbr": "2b8edc3e191c64037bb4208422f7bc8d90f77f1f41824c7f321f364408f01840",
    "q5_msr": "d097ff6b277b1ef7d308ff699935b406fbf244d0ef57c150ff0b48ff0094f9a2",
}


@pytest.mark.parametrize("name", sorted(LAM_SHA256))
def test_lambda_pinned(name, request):
    profile = request.getfixturevalue(name)
    assert hashlib.sha256(bytes(profile.lam)).hexdigest() == LAM_SHA256[name]


# the same pin on MSR draws no fixture makes: other seeds of the q=4 and q=5
# profiles, and q=8 (m=63, alpha 8..1), whose layer 0 has 16-row windows
LAM_SHA256_BY_ARGS = {
    (8, 63, (8, 7, 6, 5, 4, 3, 2, 1), 1):
        "cf8d8506688429a9660e2e1b546939bdfec3be649fe61fbbfecf6abbd6fe60e6",
    (4, 37, (6, 5, 4, 3), 2):
        "48d106cf43a60089ec5aa5ab914933ac2c51c2b565eb2d963da3287f68382042",
    (4, 37, (6, 5, 4, 3), 3):
        "a40fe2c39c9af6366411cd5573917586a204c80ee7fb37d029f8209ff879ce67",
    (5, 34, (7, 6, 5, 4, 3), 2):
        "d0333b260c97059f8f39b6399c3653069cdf36f39e22e7c4bba4168e6b444d31",
}


@pytest.mark.parametrize("q,m,alpha,seed", sorted(LAM_SHA256_BY_ARGS))
def test_lambda_pinned_beyond_the_fixtures(q, m, alpha, seed):
    profile = profile_new("msr", q, m, alpha, seed=seed)
    assert (hashlib.sha256(bytes(profile.lam)).hexdigest()
            == LAM_SHA256_BY_ARGS[q, m, alpha, seed])


# sha256 of profile_to_text, which profile.txt holds and whose first 8
# bytes of SHA-256 every node file embeds.
PROFILE_TEXT_SHA256 = {
    "q3_msr": "a38387da03277723a35cfdb3bf63f5f3b44609a2e51c9dbbfd27b1bc9f8f71d3",
    "q4_msr": "d90d95b1611a8e57e3f0ae4c88a408db55df7a24059c8a5f2b76857525d0cd3c",
    "q3_mbr": "e8cc2202a3d30b6fcd3afe2cfd3f20e4537da1aaeea0391054b7a62478ca07b7",
    "q4_mbr": "660bd383bb2beed503bb7bc2ad2023902a21b0cdda1db3012d839c4fbf095947",
    "q5_msr": "32d56c4ad8cdf5b88f7e0ba6c5e961b461270ad8e5e3a868157a59c51a3c7df0",
    "q5_mbr": "1fd33a59e7b17926cdc4c2e491a5983beee8de28f5821821d827a465917a9924",
}


@pytest.mark.parametrize("name", sorted(PROFILE_TEXT_SHA256))
def test_profile_text_pinned(name, request):
    text = profile_to_text(request.getfixturevalue(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PROFILE_TEXT_SHA256[name]


def _base_minors_regular(F, psi, d):
    return all(det_nonzero(F, list(sub))
               for start in (0, 1)
               for sub in combinations(psi[start:start + d + 1], d))


def test_select_delta_rejects_impossible_draws(monkeypatch):
    # the draw budget: with one draw fewer than the first passing draw N the
    # search fails, and with exactly N the single passer is returned unscored;
    # N is found with every base-window minor as the reference
    import hrgc.matrices as mx
    F = field_new(3)
    xs = [0] + [F.exp(i) for i in range(8)]
    alpha, d, seed = (3, 2, 1), (6, 4, 2), 11
    phis = [_phi_rows(F, xs, a) for a in alpha]
    rng = random.Random(seed)
    for n_draws in range(1, mx.MAX_DELTA_DRAWS + 1):
        lam = list(range(F.order))
        rng.shuffle(lam)
        if all(_base_minors_regular(F, _psi_rows(F, phi, lam), dl)
               for phi, dl in zip(phis, d)):
            break
    assert n_draws == 9
    monkeypatch.setattr(mx, "MAX_DELTA_DRAWS", n_draws - 1)
    with pytest.raises(DeltaSearchFailed):
        select_delta(F, xs, alpha, d, "msr", seed=seed)
    monkeypatch.setattr(mx, "MAX_DELTA_DRAWS", n_draws)
    assert select_delta(F, xs, alpha, d, "msr", seed=seed) == tuple(lam)
    monkeypatch.undo()
    lam1 = select_delta(F, xs, alpha, d, "msr", seed=seed)
    lam2 = select_delta(F, xs, alpha, d, "msr", seed=seed)
    assert lam1 == lam2


def _degenerate_lams(F, xs, a):
    """Coefficient vectors that make psi rank-deficient or Vandermonde:
    zeros, a constant, x^(a-1) (a repeated column), x^a and x^a + 1 (psi is
    Vandermonde of width 2a), and zeros over half of a random permutation."""
    rng = random.Random(a)
    half = rng.sample(range(F.order), F.order)
    return [
        [0] * len(xs),
        [F.exp(3)] * len(xs),
        [F.pow(x, a - 1) for x in xs],
        [F.pow(x, a) for x in xs],
        [F.add(F.pow(x, a), 1) for x in xs],
        [v if g % 2 else 0 for g, v in enumerate(half)],
    ]


def _weight(F, xs, rows, i):
    w = 1
    for j in rows:
        if j != i:
            w = F.mul(w, F.sub(xs[i], xs[j]))
    return F.inv(w)


def _poly_at(F, f, x):
    v = 0
    for c in reversed(f):
        v = F.add(F.mul(v, x), c)
    return v


@pytest.mark.parametrize("q,alphas", [
    (3, (1, 2, 3, 4)), (4, (1, 3, 5, 7)), (5, (2, 4, 7, 10)), (8, (1, 4, 8))])
def test_hankel_form_is_the_left_null_space_of_psi(q, alphas):
    # the lemma against generic elimination: for 2a or 2a + 1 rows S of
    # [Phi, Lambda Phi], h_i = w_i f(x_i) maps null(K_S) one to one onto the
    # left null space of psi[S], for random and degenerate lambda alike
    F = field_new(q)
    xs = [group_x_value(F, g) for g in range(F.order)]
    form = _HankelForm(F, xs)
    rng = random.Random(q)
    for a in alphas:
        phi = _phi_rows(F, xs, a)
        for lam in ([rng.sample(range(F.order), F.order) for _ in range(3)]
                    + _degenerate_lams(F, xs, a)):
            psi = _psi_rows(F, phi, lam)
            for e in (0, 1):
                rows = rng.sample(range(F.order), 2 * a + e)
                sub = [psi[i] for i in rows]
                K = form.hankel(lam, rows, a)
                assert len(K) == a and all(len(r) == a + e for r in K)
                fs = null_space(F, K)
                assert len(fs) == len(left_null_space(F, sub))
                if e == 0:
                    assert det_nonzero(F, K) == det_nonzero(F, sub)
                for f in fs:
                    h = [F.mul(_weight(F, xs, rows, i), _poly_at(F, f, xs[i]))
                         for i in rows]
                    assert any(h)
                    assert vec_mat(F, h, sub) == [0] * (2 * a)


def test_x_values_pairwise_distinct():
    for q in SUPPORTED_Q:
        F = field_new(q)
        xs = [group_x_value(F, g) for g in range(F.order)]
        assert len(set(xs)) == F.order


def test_windows_ok_equals_every_base_window_minor(q3_msr, q4_msr):
    # the Hankel window check against the determinant of every d-subset of
    # psi's rows 0..d and 1..d+1: on each layer under random lambda, and
    # under degenerate lambda that leave psi rank-deficient or Vandermonde
    rng = random.Random(18)
    outcomes = set()
    for p in (q3_msr, q4_msr):
        F = p.field
        form = _HankelForm(F, p._xs)
        for l, a in enumerate(p.alpha):
            lams = ([rng.sample(range(F.order), F.order) for _ in range(15)]
                    + _degenerate_lams(F, p._xs, a))
            for lam in lams:
                psi = _psi_rows(F, p.phi(l), lam)
                regular = _base_minors_regular(F, psi, p.d[l])
                assert form.windows_ok(lam, a) == regular
                outcomes.add((regular,
                              len(left_null_space(F, psi[:p.d[l] + 1])) == 1))
    # accepted, rejected although rows 0..d have full rank, and rejected
    # with rows 0..d rank-deficient
    assert outcomes == {(True, True), (False, True), (False, False)}


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


def test_verify_delta_honest_report_q3(q3_msr):
    rep = verify_delta(q3_msr)
    assert rep.criterion_i
    assert rep.operational
    assert rep.method == "exhaustive"
    # the all-subsets requirement admits no assignment at this field size;
    # the report must say so and carry a witness
    assert not rep.criterion_ii
    l, sub = rep.first_failing_subset
    assert len(sub) == q3_msr.d[l]
    assert not det_nonzero(
        q3_msr.field, [q3_msr.nu_row(g, l) for g in sub]
    )


def test_verify_delta_flags_duplicate_lambda(q3_msr):
    lam = list(q3_msr.lam)
    lam[1] = lam[0]
    rep = verify_delta(q3_msr, lam=lam)
    assert not rep.criterion_i
    assert not rep.criterion_ii


def test_verify_delta_vandermonde_pattern_layer0(q3_msr):
    # lambda_g = x_g^alpha_0 turns layer 0 into a pure Vandermonde stack:
    # no singular layer-0 subset
    p = q3_msr
    lam = [p.field.pow(p.x_value(g), p.alpha[0]) for g in range(9)]
    rep = verify_delta(p, lam=lam)
    assert rep.singular_counts[0] == (0, 84)


def test_verify_delta_sampled_path(q3_msr, monkeypatch):
    # subset spaces above the exhaustive cap switch to seeded sampling;
    # shrink both knobs so the branch runs in test time
    import hrgc.matrices as mx
    monkeypatch.setattr(mx, "EXHAUSTIVE_MINOR_CAP", 10)
    monkeypatch.setattr(mx, "SAMPLED_MINORS_PER_LAYER", 500)
    rep = verify_delta(q3_msr)
    assert rep.method == "sampled"
    assert all(checked == 500 for _, checked in rep.singular_counts.values())
    assert rep.criterion_i and rep.operational


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
            assert row == list(mu) + [F.mul(p.lam[g], v) for v in mu]
    # V rows 0..d_l - 1 of layer l are square and invertible
    for l in range(3):
        d = p.d[l]
        square = [p.nu_row(g, l) for g in range(d)]
        assert len(square) == d == len(square[0])
        assert mat_inv(F, square)


def test_any_alpha_rows_of_phi_independent_q3(q3_msr):
    from itertools import combinations
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
    other = profile_new("msr", 3, 8, (3, 2, 1), seed=5)
    if other.lam != q3_msr.lam:
        assert profile_digest(other) != profile_digest(q3_msr)


def _edited(profile, key, value):
    lines = profile_to_text(profile).splitlines()
    kept = [ln for ln in lines if not ln.startswith(f"{key}=")]
    if value is not None:
        kept.append(f"{key}={value}")
    return "\n".join(kept) + "\n"


@pytest.mark.parametrize("key,value", [
    ("seed", None),
    ("lam", None),
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
])
def test_profile_from_text_rechecks_every_field(q3_msr, key, value):
    with pytest.raises(InvalidParams):
        profile_from_text(_edited(q3_msr, key, value))


def test_profile_from_text_applies_the_alpha_and_k_rules(q3_msr, q3_mbr):
    with pytest.raises(InvalidK):
        profile_from_text(_edited(q3_msr, "k", "4,3,3"))
    with pytest.raises(InvalidK):
        profile_from_text(_edited(q3_mbr, "k", "1,2,1"))
    with pytest.raises(InvalidAlpha):
        profile_from_text(_edited(q3_mbr, "alpha", "3,3,1"))
