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
``_m_response`` and the full-stack block solver ``rec_m``.  Both solvers
find T first and take S from the strip R1 - Delta_part T^t, which
``_strip_t`` computes for both; ``rec_m`` decodes the T columns and then the
strip's columns with one column decoder.  The S blocks use ``hmsr``'s
symmetric block reader and writer.
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
    _symmetric_block,
    _upper_triangle,
    helper_response,
    symmetric,
)
from .linalg import mat_inv, mat_mul, transpose, vec_mat
from .matrices import CodeProfile


def arrange_m(message, profile: CodeProfile) -> MessageMatrices:
    if len(message) != profile.B:
        raise LengthMismatch(f"message length {len(message)} != B={profile.B}")
    it = iter(message)
    m = MessageMatrices(s=[[] for _ in range(profile.q)],
                        t_=[[] for _ in range(profile.q)])
    for l, (a, k) in enumerate(zip(profile.alpha, profile.k)):
        for _ in range(profile.blocks(l)):
            m.s[l].append(_symmetric_block(it, k))
            m.t_[l].append([[next(it) for _ in range(a - k)] for _ in range(k)])
    return m


def message_from_m(m: MessageMatrices, profile: CodeProfile):
    out = []
    for s_layer, t_layer in zip(m.s, m.t_):
        for S, T in zip(s_layer, t_layer):
            out += _upper_triangle(S)
            out += [x for row in T for x in row]
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
    nodes = []
    for g in range(profile.n_nodes):
        tilde = [layer_mats[l][g] for l in range(q)]
        y = mat_mul(F, profile.points.basis(g), tilde)
        nodes.append(NodeState(node_id=g, y=y))
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


def _strip_t(F, mu_rows, k, R, T):
    """R1 - Delta_part T^t: the first k entries of each response row less
    what its last alpha - k mu entries carry through T^t.  A None row (an
    erased node) stays None."""
    t_cols = transpose(T)
    return [None if r is None else
            vec_mat(F, [1] + [F.neg(dp) for dp in mu[k:]], [r[:k]] + t_cols)
            for mu, r in zip(mu_rows, R)]


def _extract_m(F, mu_rows, k, R, omega_inv=None):
    """Split W = [Omega, Delta_part]; T = Omega^-1 R2; S = Omega^-1 (R1 - Dp T^t).

    ``omega_inv`` is Omega^-1 when the caller holds it (once per layer)."""
    if omega_inv is None:
        omega_inv = mat_inv(F, [row[:k] for row in mu_rows])
    T = mat_mul(F, omega_inv, [row[k:] for row in R])
    S = mat_mul(F, omega_inv, _strip_t(F, mu_rows, k, R, T))
    if not symmetric(S):
        raise AsymmetryDetected("S block asymmetric (corrupt responses)")
    return S, T


def _m_window(profile, l, ids):
    F, k = profile.field, profile.k[l]
    mu_rows = [profile.mu_row(g, l) for g in ids]
    omega_inv = mat_inv(F, [row[:k] for row in mu_rows])
    return lambda R: _extract_m(F, mu_rows, k, R, omega_inv)


def reconstruct_mbr_plain(batches, profile: CodeProfile) -> ReconstructReport:
    return _reconstruct(batches, profile, "plain", _m_window, _m_response,
                        message_from_m)


def reconstruct_mbr_detect(batches, profile: CodeProfile) -> ReconstructReport:
    return _reconstruct(batches, profile, "detect", _m_window, _m_response,
                        message_from_m)


def reconstruct_mbr_recover(batches, profile: CodeProfile,
                            prior_flags=frozenset()) -> ReconstructReport:
    return _reconstruct_recover(batches, profile, prior_flags, _m_window,
                                _m_response, rec_m, message_from_m)


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
    if not symmetric(S):
        raise DecodeFailure("recovered block not symmetric "
                            "(corruption beyond the budget)")

    corrupt = {g for g in range(q2) if blocks[g] is not None
               and blocks[g] != _m_response(profile, g, l, S, T)}
    return S, T, corrupt
