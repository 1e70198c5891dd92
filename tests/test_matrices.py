import pytest

from hrgc.errors import (
    DeltaSearchFailed,
    InvalidAlpha,
    InvalidK,
    InvalidParams,
)
from hrgc.field import field_new
from hrgc.linalg import det_nonzero, mat_inv
from hrgc.matrices import (
    CodeProfile,
    profile_digest,
    profile_from_text,
    profile_new,
    profile_to_text,
    repair_windows,
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


def test_select_delta_rejects_impossible_draws():
    # draw budget exhausts when every candidate fails: force it with a field
    # whose windows can never all pass by demanding too many helpers?  not
    # constructible cheaply -- instead check determinism across seeds
    F = field_new(3)
    xs = [0] + [F.exp(i) for i in range(8)]
    lam1 = select_delta(F, xs, (3, 2, 1), (6, 4, 2), "msr", seed=11)
    lam2 = select_delta(F, xs, (3, 2, 1), (6, 4, 2), "msr", seed=11)
    assert lam1 == lam2


def test_repair_windows_cover_all_failures():
    wins = repair_windows(9, 4)
    assert (0, 1, 2, 3) in wins            # z >= 4
    assert (1, 2, 3, 4) in wins            # z = 0, or detect shift
    assert (0, 2, 3, 4) in wins            # z = 1
    for w in wins:
        assert len(w) == 4 and len(set(w)) == 4


def test_operational_windows_invertible(q3_msr, q4_msr):
    for p in (q3_msr, q4_msr):
        F = p.field
        for l in range(p.q):
            for win in repair_windows(p.n_nodes, p.d[l]):
                assert det_nonzero(F, [p.nu_row(g, l) for g in win])


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
