"""Closed-form storage/bandwidth identities and error-correction capability.

All arithmetic is exact (ints and Fractions).  The capability formulas are
pure functions of (q, d) or (q, k) and never touch field tables, so the sweep
can range over every even q in [4, 16] -- including non-prime-powers, where
only the arithmetic comparison is meaningful.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .curve import kappa
from .errors import InvalidParams

SWEEP_ALPHA_RULE = (
    "m=2*q^2+q+1; alpha_i=kappa(q-1)-i "
    "(longest consecutive run anchored at the last layer's bound)"
)


def cutset_bound(k: int, d: int, alpha, beta) -> Fraction:
    """Max file size sum_{i<k} min(alpha, (d-i)*beta)."""
    if k < 1 or d < k:
        raise InvalidParams(f"need 1 <= k <= d, got k={k} d={d}")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    return sum((min(alpha, (d - i) * beta) for i in range(k)), Fraction(0))


def msr_point(B, k: int, d: int):
    """(per-node storage, repair download) at the minimum-storage extreme."""
    B = Fraction(B)
    return B / k, B * d / (k * (d - k + 1))


def mbr_point(B, k: int, d: int):
    """(per-node storage, repair download) at the minimum-bandwidth extreme."""
    B = Fraction(B)
    v = 2 * B * d / Fraction(2 * k * d - k * k + k)
    return v, v


def layer_equivalents(profile, l: int) -> dict:
    """The (B, k, d, alpha, beta) bookkeeping of layer l's sub-code."""
    A = profile.A
    a = profile.alpha[l]
    beta = Fraction(A, a)
    if profile.mode == "msr":
        B_l = A * (a + 1)
    else:
        kl = profile.k[l]
        B_l = Fraction(A * kl * (2 * a - kl + 1), 2 * a)
    return {"B": B_l, "k": profile.k[l], "d": profile.d[l],
            "alpha": A, "beta": beta}


def regen_capability(q: int, d) -> int:
    """Aggregate repair-path error budget q * floor((q^2 - d_last - 1)/2)."""
    return q * ((q * q - d[-1] - 1) // 2)


def recon_capability(q: int, k) -> int:
    """Aggregate reconstruction error budget q * floor((q^2 - k_last)/2)."""
    return q * ((q * q - k[-1]) // 2)


def rs_capability(q: int, d) -> int:
    """Same-rate flat code budget floor((q^3 - q - sum d)/2)."""
    return (q**3 - q - sum(d)) // 2


@dataclass(frozen=True)
class CapabilityRow:
    q: int
    alphas: tuple
    ds: tuple
    tau_hmsr: int
    tau_rsmsr: int


def sweep_alpha(q: int):
    """The published selection rule: m = 2q^2+q+1, alpha_i = kappa(q-1) - i."""
    m = 2 * q * q + q + 1
    top = kappa(q, m, q - 1)
    alpha = tuple(top - i for i in range(q))
    assert alpha[-1] >= 1 and 2 * alpha[0] <= q * q - 2
    return m, alpha


def capability_sweep(q_start: int = 4, q_stop: int = 16, q_step: int = 2):
    if q_start < 4 or q_step < 1:
        raise InvalidParams(f"q range {q_start}:{q_stop}:{q_step} needs "
                            f"start >= 4 and step >= 1")
    rows = []
    for q in range(q_start, q_stop + 1, q_step):
        _, alpha = sweep_alpha(q)
        d = tuple(2 * a for a in alpha)
        rows.append(CapabilityRow(
            q=q, alphas=alpha, ds=d,
            tau_hmsr=regen_capability(q, d),
            tau_rsmsr=rs_capability(q, d),
        ))
    return rows


def sweep_csv(rows) -> str:
    """CSV with the selection rule declared in a leading comment line."""
    buf = io.StringIO()
    buf.write(f"# alpha selection rule: {SWEEP_ALPHA_RULE}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "alphas", "ds", "tau_hmsr", "tau_rsmsr"])
    for r in rows:
        writer.writerow([
            r.q,
            ",".join(str(a) for a in r.alphas),
            ",".join(str(d) for d in r.ds),
            r.tau_hmsr,
            r.tau_rsmsr,
        ])
    return buf.getvalue()
