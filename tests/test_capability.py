from fractions import Fraction
from itertools import combinations

import pytest

from hrgc.capability import (
    CapabilityRow,
    capability_sweep,
    cutset_bound,
    layer_equivalents,
    mbr_point,
    msr_point,
    recon_capability,
    regen_capability,
    rs_capability,
    sweep_alpha,
    sweep_csv,
)
from hrgc.curve import kappa
from hrgc.errors import InvalidParams


def test_cutset_direct():
    assert cutset_bound(2, 2, 1, 1) == 2
    with pytest.raises(InvalidParams):
        cutset_bound(3, 2, 1, 1)


def test_cutset_meets_layer_payload_msr(q3_msr, q4_msr):
    for p in (q3_msr, q4_msr):
        for l in range(p.q):
            eq = layer_equivalents(p, l)
            bound = cutset_bound(eq["k"], eq["d"], eq["alpha"], eq["beta"])
            assert bound == eq["B"] == p.A * (p.alpha[l] + 1)


def test_cutset_meets_layer_payload_mbr(q3_mbr, q4_mbr):
    for p in (q3_mbr, q4_mbr):
        for l in range(p.q):
            eq = layer_equivalents(p, l)
            bound = cutset_bound(eq["k"], eq["d"], eq["alpha"], eq["beta"])
            assert bound == eq["B"]
            assert bound == Fraction(
                p.A * p.k[l] * (2 * p.alpha[l] - p.k[l] + 1), 2 * p.alpha[l]
            )


def test_msr_point_identities(q3_msr, q4_msr):
    # per-layer equivalents sit exactly on the minimum-storage point
    for p in (q3_msr, q4_msr):
        for l in range(p.q):
            eq = layer_equivalents(p, l)
            alpha_pt, gamma_pt = msr_point(eq["B"], eq["k"], eq["d"])
            assert alpha_pt == Fraction(p.A)
            assert gamma_pt == eq["d"] * eq["beta"] == 2 * p.A


def test_mbr_point_identities(q4_mbr):
    for l in range(q4_mbr.q):
        eq = layer_equivalents(q4_mbr, l)
        alpha_pt, gamma_pt = mbr_point(eq["B"], eq["k"], eq["d"])
        assert alpha_pt == gamma_pt == eq["d"] * eq["beta"] == Fraction(q4_mbr.A)


def test_tau_values_q4(q4_msr):
    assert regen_capability(q4_msr.q, q4_msr.d) == 16
    assert rs_capability(q4_msr.q, q4_msr.d) == 12
    assert recon_capability(q4_msr.q, q4_msr.k) == 4 * ((16 - 4) // 2) == 24


def test_tau_values_q3(q3_msr):
    assert regen_capability(q3_msr.q, q3_msr.d) == 9
    assert rs_capability(q3_msr.q, q3_msr.d) == 6


def test_tau_recon_k_sequence():
    assert recon_capability(4, (7, 6, 5, 4)) == 24


def valid_alpha_sequences(q, m):
    kap = kappa(q, m)
    cap0 = (q * q - 2) // 2
    choices = range(1, min(kap[0], cap0) + 1)
    seqs = []
    for combo in combinations(sorted(choices, reverse=True), q):
        alpha = tuple(sorted(combo, reverse=True))
        if all(alpha[i] <= kap[i] for i in range(q)):
            seqs.append(alpha)
    return seqs


@pytest.mark.parametrize("q", [3, 4, 5])
def test_capability_theorem_exhaustive(q):
    """Over every valid layer-size sequence the layered budget beats the
    same-rate flat code, by at least (q^2-3q)/4 for q > 3."""
    m = 2 * q * q + q + 1
    seqs = valid_alpha_sequences(q, m)
    assert seqs, "enumeration must be non-empty"
    for alpha in seqs:
        d = tuple(2 * a for a in alpha)
        tau_h = regen_capability(q, d)
        tau_rs = rs_capability(q, d)
        assert tau_h > tau_rs
        if q > 3:
            assert tau_h - tau_rs >= (q * q - 3 * q) / 4


def test_sweep_rows():
    rows = capability_sweep(4, 16, 2)
    assert len(rows) == 7
    assert [r.q for r in rows] == [4, 6, 8, 10, 12, 14, 16]
    assert rows[0] == CapabilityRow(
        q=4, alphas=(6, 5, 4, 3), ds=(12, 10, 8, 6), tau_hmsr=16, tau_rsmsr=12
    )
    for r in rows:
        assert r.tau_hmsr > r.tau_rsmsr
        assert r.tau_hmsr - r.tau_rsmsr >= (r.q * r.q - 3 * r.q) / 4
    taus = [r.tau_hmsr for r in rows]
    assert taus == sorted(taus)                      # monotone in q


def test_sweep_alpha_rule_anchors_q4():
    m, alpha = sweep_alpha(4)
    assert m == 37 and alpha == (6, 5, 4, 3)


def test_sweep_csv_format():
    text = sweep_csv(capability_sweep(4, 16, 2))
    lines = text.split("\n")
    assert lines[0].startswith("# alpha selection rule:")
    assert lines[1] == "q,alphas,ds,tau_hmsr,tau_rsmsr"
    assert lines[2] == '4,"6,5,4,3","12,10,8,6",16,12'
    assert text.endswith("\n") and "\r" not in text
    assert len([ln for ln in lines if ln]) == 2 + 7
