"""Layered MBR engine: one symmetric message matrix per block, no diagonal.

Block (l, t) is M_{l,t} = [[S, T], [T^t, 0]] with S symmetric k_l x k_l and
T of shape k_l x (alpha_l - k_l); encoding stores Y_g = B_g * G_g where row l
of G_g is mu_{g,l} M_{l,*}.  Repair downloads exactly one inner product per
helper per block and equals the per-node storage (the bandwidth-optimal
point).  All decoding here runs against plain Vandermonde matrices, so the
recovery budgets are exact; k_l = alpha_l (empty T) is a first-class case.

The node/report/batch types, the message layout (the profile's index table,
``CodeProfile.layout``), the staged request plan, the helper responses, the
encoder and the repair and reconstruction loops with their adapters are the
MSR engine's (``hmsr``).  This module supplies what is particular to
MBR: the mu rows as encoding vectors, the repair divisor x^alpha_l that
leaves a repair polynomial as it is,
the window extractor ``_extract_m`` (every block of a layer at once, with
the lowest block whose S is not symmetric, which the shared loops judge
bad like a block that re-encodes to something else), the
block stacking ``_join`` whose product with mu_g is node g's response (and
so, with the mu rows, the encoding), and the full-stack block solver
``rec_m``.  Both solvers find T first and take S from the strip
R1 - Delta_part T^t, which ``_strip_t`` computes for both, for any number of
blocks side by side; ``rec_m`` decodes the T columns and then the strip's
columns with one column decoder.
"""

from __future__ import annotations

from .decoder import ERASED, decode
from .errors import DecodeFailure
from .hmsr import (
    MessageMatrices,
    Report,
    _arrange,
    _asymmetric_block,
    _encode,
    _interleave,
    _product,
    _reconstruct,
    _repair,
    helper_response,  # noqa: F401 -- re-exported: MBR helpers answer as MSR's
)
from .linalg import mat_inv, mat_mul
from .matrices import CodeProfile


def arrange_m(message, profile: CodeProfile) -> MessageMatrices:
    return _arrange(message, profile)


def _join(S, T):
    """The blocks [[S, T], [T^t, 0]] side by side, from the k x k blocks S
    and the k x (alpha - k) blocks T, each side by side (one block: the
    block itself).  Node g's response is mu_g times it."""
    k = len(S)
    w = len(S[0]) // k
    e = len(T[0]) // w
    # entry (i, c) of every block of S is S[i][c::k], and so on
    top = [_interleave([Si[c::k] for c in range(k)] + [Ti[m::e] for m in range(e)])
           for Si, Ti in zip(S, T)]
    bottom = [_interleave([Ti[m::e] for Ti in T] + [[0] * w] * e)
              for m in range(e)]
    return top + bottom


def encode_mbr(m: MessageMatrices, profile: CodeProfile):
    return _encode(m, profile, profile.mu_row, _join)


# -- repair -------------------------------------------------------------------


def _power_divisor(profile, z, l):
    """x^alpha_l: the mu rows are powers of x, so node z's layer-l row is
    f itself (deg f < d_l = alpha_l), f mod x^alpha_l."""
    return [0] * profile.alpha[l] + [1]


def regenerate_mbr_plain(z, batches, profile: CodeProfile) -> Report:
    return _repair(z, batches, profile, "plain", _power_divisor)


def regenerate_mbr_detect(z, batches, profile: CodeProfile) -> Report:
    return _repair(z, batches, profile, "detect", _power_divisor)


def regenerate_mbr_recover(z, batches, profile: CodeProfile,
                           prior_flags=frozenset()) -> Report:
    return _repair(z, batches, profile, "recover", _power_divisor, prior_flags)


# -- reconstruction --------------------------------------------------------------


def _strip_t(F, mu_rows, k, R, T):
    """R1 - Delta_part T^t for every block of each response row: a block's
    first k entries less what its last alpha - k mu entries carry through
    that block's T^t, the blocks side by side, as bytes.  A None row (an
    erased node) stays None.  With k = alpha there is no T, and the strip
    is the row itself."""
    a = len(mu_rows[0])
    e = a - k
    if not e:
        return R
    # U[m]: entry (c, m) of every block of T, at the place of the strip's
    # entry c of that block
    U = [_interleave([Tc[m::e] for Tc in T]) for m in range(e)]
    width = len(U[0])
    return [None if r is None else F.comb_bytes(
                [1] + [F.neg(dp) for dp in mu[k:]],
                [_interleave([r[c::a] for c in range(k)])] + U, width)
            for mu, r in zip(mu_rows, R)]


def _extract_m(F, mu_rows, k, R, omega_inv):
    """Split W = [Omega, Delta_part]; T = Omega^-1 R2; S = Omega^-1 (R1 - Dp T^t),
    for every block of the rows R (bytes, the blocks side by side) at once.

    ``omega_inv`` is Omega^-1, built once per layer by the caller.
    Returns (S, T, asym), bytes rows, asym the lowest block whose S is not
    symmetric (None when every one is)."""
    a = len(mu_rows[0])
    T = (_product(F, omega_inv,
                  [_interleave([r[c::a] for c in range(k, a)]) for r in R])
         if a > k else [b""] * k)
    S = _product(F, omega_inv, _strip_t(F, mu_rows, k, R, T))
    return S, T, _asymmetric_block(S)


def _m_window(profile, l, ids):
    F, k = profile.field, profile.k[l]
    mu_rows = [profile.mu_row(g, l) for g in ids]
    omega_inv = mat_inv(F, [row[:k] for row in mu_rows])
    return lambda R: _extract_m(F, mu_rows, k, R, omega_inv)


def reconstruct_mbr_plain(batches, profile: CodeProfile) -> Report:
    return _reconstruct(batches, profile, "plain", profile.mu_row, _join,
                        _m_window, rec_m)


def reconstruct_mbr_detect(batches, profile: CodeProfile) -> Report:
    return _reconstruct(batches, profile, "detect", profile.mu_row, _join,
                        _m_window, rec_m)


def reconstruct_mbr_recover(batches, profile: CodeProfile,
                            prior_flags=frozenset()) -> Report:
    return _reconstruct(batches, profile, "recover", profile.mu_row, _join,
                        _m_window, rec_m, prior_flags)


def rec_m(blocks, erased, l, profile: CodeProfile):
    """Recover one M block from the full q^2-node stack.

    Decodes the T columns first (length-q^2 Vandermonde words), erasing rows
    as they are caught, then the S columns of R1 - Delta_part T^t.  Exact
    whenever sigma + 2*tau <= q^2 - k_l.  Returns (S, T, corrupt ids).
    """
    F = profile.field
    q2 = profile.n_nodes
    k = profile.k[l]
    mu = profile.phi(l)
    gen = [row[:k] for row in mu]
    pts = [profile.x_value(g) for g in range(q2)]
    work_flags = set(erased)

    def decode_columns(rows, w):
        """The k x w block whose columns decode the columns of ``rows``;
        rows found in error are erased for every later column."""
        cols = []
        for c in range(w):
            word = [ERASED if g in work_flags or r is None else r[c]
                    for g, r in enumerate(rows)]
            res = decode(F, gen, word, points=pts)
            work_flags.update(res.error_positions)
            cols.append(res.message)
        return [[col[i] for col in cols] for i in range(k)]

    T = decode_columns([None if b is None else b[k:] for b in blocks],
                       profile.alpha[l] - k)
    S = decode_columns(_strip_t(F, mu, k, blocks, T), k)
    if _asymmetric_block(S) is not None:
        raise DecodeFailure("recovered block not symmetric "
                            "(corruption beyond the budget)")

    present = [g for g in range(q2) if blocks[g] is not None]
    corrupt = {g for g, r in zip(present, mat_mul(
        F, [mu[g] for g in present], _join(S, T))) if list(blocks[g]) != r}
    return S, T, corrupt
