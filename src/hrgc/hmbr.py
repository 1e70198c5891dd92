"""Layered MBR engine: one symmetric message matrix per block, no diagonal.

Block (l, t) is M_{l,t} = [[S, T], [T^t, 0]] with S symmetric k_l x k_l and
T of shape k_l x (alpha_l - k_l); encoding stores Y_g = B_g * G_g where row l
of G_g is mu_{g,l} M_{l,*}.  Repair downloads exactly one inner product per
helper per block and equals the per-node storage (the bandwidth-optimal
point).  All decoding here runs against plain Vandermonde matrices, so the
recovery budgets are exact; k_l = alpha_l (empty T) is a first-class case.

The node/report/batch types, the staged request plan, the helper responses
and the plain/detect/recover repair and reconstruction loops are the MSR
engine's (``hmsr``).  This module supplies what is particular to MBR: the
message layout, the mu rows as encoding vectors, repair rows that need no
lambda mix, the window extractor ``_extract_m``, the row re-encoder
``_m_response`` and the full-stack block solver ``rec_m``.
"""

from __future__ import annotations

from .decoder import ERASED, decode
from .errors import AsymmetryDetected, DecodeFailure, LengthMismatch
from .hmsr import (  # noqa: F401 -- the shared names are re-exported
    MessageMatrices,
    NodeState,
    ReconstructReport,
    RepairReport,
    _layer_matrix,
    _reconstruct,
    _reconstruct_recover,
    _regenerate,
    _regenerate_recover,
    helper_response,
    recon_response,
    row_blocks,
    staged_request_plan,
    symmetric,
    tilde_rows,
)
from .linalg import mat_inv, mat_mul, transpose, vec_mat
from .matrices import CodeProfile, profile_digest


def arrange_m(message, profile: CodeProfile) -> MessageMatrices:
    if len(message) != profile.B:
        raise LengthMismatch(f"message length {len(message)} != B={profile.B}")
    s_out, t_out = [], []
    pos = 0
    for l in range(profile.q):
        a, k = profile.alpha[l], profile.k[l]
        s_layer, t_layer = [], []
        for _ in range(profile.blocks(l)):
            S = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    S[i][j] = S[j][i] = message[pos]
                    pos += 1
            T = [[0] * (a - k) for _ in range(k)]
            for i in range(k):
                for j in range(a - k):
                    T[i][j] = message[pos]
                    pos += 1
            s_layer.append(S)
            t_layer.append(T)
        s_out.append(s_layer)
        t_out.append(t_layer)
    assert pos == profile.B
    return MessageMatrices(s=s_out, t_=t_out)


def message_from_m(m: MessageMatrices, profile: CodeProfile):
    out = []
    for l in range(profile.q):
        a, k = profile.alpha[l], profile.k[l]
        for t in range(profile.blocks(l)):
            S, T = m.s[l][t], m.t_[l][t]
            for i in range(k):
                out.extend(S[i][i:k])
            for i in range(k):
                out.extend(T[i])
    return out


def _join(S, T):
    """The block [[S, T], [T^t, 0]] of a k x k S and a k x (alpha - k) T."""
    w = len(T[0])
    return ([s + t for s, t in zip(S, T)]
            + [[t[j] for t in T] + [0] * w for j in range(w)])


def m_block(m: MessageMatrices, profile: CodeProfile, l: int, t: int):
    """Assemble the alpha_l x alpha_l block [[S, T], [T^t, 0]]."""
    return _join(m.s[l][t], m.t_[l][t])


def _m_response(profile, g, l, S, T):
    """Node g's layer-l response slice for the block: mu_g [[S, T], [T^t, 0]]."""
    return vec_mat(profile.field, profile.mu_row(g, l), _join(S, T))


def encode_mbr(m: MessageMatrices, profile: CodeProfile):
    assert profile.mode == "mbr"
    F = profile.field
    q = profile.q
    layer_mats = []
    for l in range(q):
        blocks = [m_block(m, profile, l, t) for t in range(profile.blocks(l))]
        layer_mats.append(mat_mul(F, profile.phi(l), _layer_matrix(blocks)))
    digest = profile_digest(profile)
    nodes = []
    for g in range(profile.n_nodes):
        tilde = [layer_mats[l][g] for l in range(q)]
        y = mat_mul(F, profile.points.basis(g), tilde)
        nodes.append(NodeState(node_id=g, y=y, digest=digest))
    return nodes


# -- repair -------------------------------------------------------------------


def _solved_row(profile, z, l, x):
    """An MBR repair solves node z's layer-l block directly."""
    return x


def regenerate_mbr_plain(z, batches, profile: CodeProfile) -> RepairReport:
    return _regenerate(z, batches, profile, "plain", profile.mu_row, _solved_row)


def regenerate_mbr_detect(z, batches, profile: CodeProfile) -> RepairReport:
    return _regenerate(z, batches, profile, "detect", profile.mu_row, _solved_row)


def regenerate_mbr_recover(z, batches, profile: CodeProfile,
                           prior_flags=frozenset()) -> RepairReport:
    return _regenerate_recover(z, batches, profile, prior_flags, profile.mu_row,
                               _solved_row, vandermonde=True)


# -- reconstruction --------------------------------------------------------------


def _extract_m(F, mu_rows, k, R):
    """Split W = [Omega, Delta_part]; T = Omega^-1 R2; S = Omega^-1 (R1 - Dp T^t)."""
    a = len(mu_rows[0])
    omega_inv = mat_inv(F, [row[:k] for row in mu_rows])
    dpart = [row[k:] for row in mu_rows]
    r1 = [row[:k] for row in R]
    r2 = [row[k:] for row in R]
    T = mat_mul(F, omega_inv, r2) if a > k else [[] for _ in range(k)]
    if a > k:
        corr = mat_mul(F, dpart, transpose(T))
        r1 = [[F.sub(r1[i][j], corr[i][j]) for j in range(k)] for i in range(k)]
    S = mat_mul(F, omega_inv, r1)
    if not symmetric(S):
        raise AsymmetryDetected("S block asymmetric (corrupt responses)")
    return S, T


def _m_window(profile, l, ids):
    mu_rows = [profile.mu_row(g, l) for g in ids]
    return lambda R: _extract_m(profile.field, mu_rows, profile.k[l], R)


def reconstruct_mbr_plain(batches, profile: CodeProfile) -> ReconstructReport:
    return _reconstruct(batches, profile, "plain", _m_window, _m_response,
                        message_from_m)


def reconstruct_mbr_detect(batches, profile: CodeProfile) -> ReconstructReport:
    return _reconstruct(batches, profile, "detect", _m_window, _m_response,
                        message_from_m)


def reconstruct_mbr_recover(batches, profile: CodeProfile,
                            prior_flags=frozenset()) -> ReconstructReport:
    return _reconstruct_recover(batches, profile, prior_flags, rec_m,
                                message_from_m)


def rec_m(blocks, erased, l, profile: CodeProfile):
    """Recover one M block from the full q^2-node stack.

    Decodes the T columns first (length-q^2 Vandermonde words), erasing rows
    as they are caught, then the S columns of R1 - Delta_part T^t.  Exact
    whenever sigma + 2*tau <= q^2 - k_l.  Returns (S, T, corrupt ids).
    """
    F = profile.field
    q2 = profile.n_nodes
    a, k = profile.alpha[l], profile.k[l]
    mu = [list(profile.mu_row(g, l)) for g in range(q2)]
    gen = [row[:k] for row in mu]
    pts = [profile.x_value(g) for g in range(q2)]
    work_flags = set(erased)

    def decode_col(col_vals):
        word = [ERASED if g in work_flags else col_vals[g] for g in range(q2)]
        res = decode(F, gen, word, points=pts)
        return res.message, {i for i in res.error_positions}

    t_cols = []
    for c in range(a - k):
        msg, bad = decode_col([None if blocks[g] is None else blocks[g][k + c]
                               for g in range(q2)])
        work_flags |= bad
        t_cols.append(msg)
    T = [[t_cols[c][i] for c in range(a - k)] for i in range(k)]

    s_cols = []
    for c in range(k):
        def corrected(g):
            if blocks[g] is None:
                return None
            val = blocks[g][c]
            for j in range(a - k):
                dp = mu[g][k + j]
                if dp and T[c][j]:
                    val = F.sub(val, F.mul(dp, T[c][j]))
            return val
        msg, bad = decode_col([corrected(g) for g in range(q2)])
        work_flags |= bad
        s_cols.append(msg)
    S = [[s_cols[c][i] for c in range(k)] for i in range(k)]
    if not symmetric(S):
        raise DecodeFailure("recovered block not symmetric "
                            "(corruption beyond the budget)")

    corrupt = {g for g in range(q2) if blocks[g] is not None
               and blocks[g] != _m_response(profile, g, l, S, T)}
    return S, T, corrupt
