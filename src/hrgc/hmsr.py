"""Layered MSR engine: encoding, staged repair, and file reconstruction.

Message layout: the B symbols fill two stacks of symmetric matrices S and T
(S gets the first half).  Layer l holds A/alpha_l blocks of size
alpha_l x alpha_l; blocks fill upper-triangle row-major, layers ascending,
blocks ascending.  Encoding evaluates each column of S (resp. T) as a layered
curve polynomial and stores, at node g, the q x A slice
Y_g = B_g * (U_g + lambda_g * E_g), so that row l of B_g^{-1} Y_g splits into
blocks mu_{g,l} S_{l,t} + lambda_g mu_{g,l} T_{l,t} -- one inner product per
helper is enough to repair.

Hostile-mode conventions: detect solves each block once from the first
helper window and alarms when the extra helper's row disagrees with that
solution.  This is the alarm of solving the window shifted by one again: the
windows share every other row, the shifted repair window is checked regular
once per layer, and both extractors return blocks that reproduce every row of
their window (``extract_st`` by its symmetry check, ``_extract_m`` as
Omega T = R2 and Omega S + Delta_part T^t = R1) and are exact on consistent
rows.  Recover treats each block as a length-(q^2-1) word under the stacked
encoding vectors, erases previously flagged nodes, and decodes, except that
a reconstruction keeps a block that every present row re-encodes from (the
decoder would return it and flag no node; see ``_reconstruct_recover``).
Corruption flags accumulate across the strict (layer descending, block
ascending) recovery order within one call; keeping them across calls is the
simulator's job.

The plain/detect/recover repair and reconstruction loops defined here are
shared with the MBR engine (``hmbr``), which passes its own encoding rows,
block extractor, row re-encoder, block solver and message layout, and the
request protocol: ``request_counts`` fixes every round's helpers per layer.

Each step of the block algebra is written once.  ``_pairs`` solves
R Phi^T = C + Lambda D pair by pair, for the window extractor
``extract_st`` (alpha_l + 1 rows) and the recovery solver ``rec_st`` (all
q^2 rows, erased ones None); C and D are symmetric, so row j of each is
column j's word.  ``_symmetric_block`` reads a symmetric block from an
iterator over the message and ``_upper_triangle`` writes one back; both
codes' layouts use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .decoder import ERASED, decode
from .errors import (
    AsymmetryDetected,
    DecodeFailure,
    LambdaCollision,
    LengthMismatch,
    NotEnoughHelpers,
    SingularSystem,
)
from .linalg import (det_nonzero, mat_inv, mat_mul, mat_vec, solve_square,
                     transpose, vec_mat)
from .matrices import CodeProfile


# -- data types ---------------------------------------------------------------


@dataclass
class MessageMatrices:
    """The message blocks of both codes, s[l][t] and t_[l][t].

    MSR: S and T symmetric alpha_l x alpha_l.  MBR: S symmetric k_l x k_l,
    T k_l x (alpha_l - k_l).
    """
    s: list
    t_: list


@dataclass
class NodeState:
    node_id: int
    y: list                  # q x A symbol matrix


@dataclass
class HelpSymbolBatch:
    """One node's response: repair help symbols and/or reconstruction rows."""
    helper_id: int
    level: int
    symbols: dict = dfield(default=None)   # (l, t) -> symbol      (repair)
    rows: dict = dfield(default=None)      # l -> list of A symbols (reconstruct)


@dataclass
class RepairReport:
    mode: str
    ok: bool
    y: list | None = None
    alarm: dict | None = None
    failure: str | None = None
    corrupted: frozenset = frozenset()
    tallies: dict = dfield(default_factory=dict)


@dataclass
class ReconstructReport:
    mode: str
    ok: bool
    message: list | None = None
    alarm: dict | None = None
    failure: str | None = None
    corrupted: frozenset = frozenset()
    tallies: dict = dfield(default_factory=dict)


# -- message arrangement --------------------------------------------------------


def arrange_st(message, profile: CodeProfile) -> MessageMatrices:
    if len(message) != profile.B:
        raise LengthMismatch(f"message length {len(message)} != B={profile.B}")
    it = iter(message)      # S takes the first half, T the second
    s, t_ = [[[_symmetric_block(it, a) for _ in range(profile.blocks(l))]
              for l, a in enumerate(profile.alpha)] for _ in range(2)]
    return MessageMatrices(s=s, t_=t_)


def _symmetric_block(it, a):
    """The a x a symmetric block whose upper triangle, row-major, is the
    next a(a+1)/2 symbols of the iterator ``it``."""
    M = [[0] * a for _ in range(a)]
    for i in range(a):
        for j in range(i, a):
            M[i][j] = M[j][i] = next(it)
    return M


def _upper_triangle(M):
    """The upper triangle of the square matrix M, row-major."""
    return [x for i, row in enumerate(M) for x in row[i:]]


def message_from_st(st: MessageMatrices, profile: CodeProfile):
    return [x for blocks in (st.s, st.t_) for layer in blocks for M in layer
            for x in _upper_triangle(M)]


# -- encoding -------------------------------------------------------------------


def _layer_matrix(blocks_l):
    """Horizontally concatenate the blocks of one layer."""
    a = len(blocks_l[0])
    rows = []
    for i in range(a):
        row = []
        for M in blocks_l:
            row.extend(M[i])
        rows.append(row)
    return rows


def encode(st: MessageMatrices, profile: CodeProfile):
    """Produce the q^2 node states for an arranged message."""
    assert profile.mode == "msr"
    F = profile.field
    n = profile.n_nodes
    # row g of layer l is nu_{g,l} [S_l; T_l] = mu_{g,l} S_l + lam_g mu_{g,l} T_l
    layers = [mat_mul(F, [profile.nu_row(g, l) for g in range(n)],
                      _layer_matrix(st.s[l]) + _layer_matrix(st.t_[l]))
              for l in range(profile.q)]
    return [NodeState(node_id=g, y=mat_mul(
                F, profile.points.basis(g), [m[g] for m in layers]))
            for g in range(n)]


def tilde_rows(profile: CodeProfile, state: NodeState):
    """B_g^{-1} Y_g: row l carries the layer-l payload of node g."""
    return mat_mul(profile.field, profile.points.basis_inv(state.node_id), state.y)


def helper_response(state: NodeState, profile: CodeProfile, level: int,
                    target: int) -> HelpSymbolBatch:
    """Repair help symbols for layers 0..level, computed from local state only."""
    assert state.node_id != target
    F = profile.field
    tilde = tilde_rows(profile, state)
    symbols = {}
    for l in range(level + 1):
        a = profile.alpha[l]
        # block t's symbol is its slice of the row times mu_z: mu_z times the
        # matrix whose row j holds entry j of every block
        dots = vec_mat(F, profile.mu_row(target, l),
                       [tilde[l][j::a] for j in range(a)])
        symbols.update(((l, t), v) for t, v in enumerate(dots))
    return HelpSymbolBatch(helper_id=state.node_id, level=level, symbols=symbols)


def recon_response(state: NodeState, profile: CodeProfile,
                   level: int) -> HelpSymbolBatch:
    """Reconstruction rows: layer rows 0..level of B_g^{-1} Y_g."""
    tilde = tilde_rows(profile, state)
    return HelpSymbolBatch(
        helper_id=state.node_id, level=level,
        rows={l: tilde[l] for l in range(level + 1)},
    )


# -- staged request protocol ----------------------------------------------------


def request_counts(profile: CodeProfile, op: str, mode: str, n_live: int):
    """Helpers serving each layer in an (op, mode) round: d_l (repair) or k_l
    (reconstruct), one more in detect; in recover every other node, all
    q^2 - 1 for a repair and the n_live live nodes for a reconstruction."""
    if mode == "recover":
        return [profile.n_nodes - 1 if op == "repair" else n_live] * profile.q
    extra = 1 if mode == "detect" else 0
    return [c + extra for c in (profile.d if op == "repair" else profile.k)]


def staged_request_plan(profile: CodeProfile, op: str, mode: str, live_ids):
    """[(helper_id, level)] over ``live_ids``, levels descending and ids
    ascending, such that ``request_counts`` helpers serve each layer (a
    helper asked at level j serves layers 0..j)."""
    live = sorted(live_ids)
    counts = request_counts(profile, op, mode, len(live))
    if len(live) < counts[0]:
        if mode == "recover":
            raise NotEnoughHelpers(
                f"recovery repair needs all {counts[0]} other nodes live")
        raise NotEnoughHelpers(f"need {counts[0]} live helpers, have {len(live)}")
    helpers, above = iter(live), counts[1:] + [0]
    return [(next(helpers), j) for j in range(profile.q - 1, -1, -1)
            for _ in range(counts[j] - above[j])]


def _contributors(batches, l):
    return sorted((b for b in batches if b.level >= l), key=lambda b: b.helper_id)


# -- shared repair/reconstruct loops ---------------------------------------------
#
# Both engines run these four loops.  Each entry point passes what differs
# between the codes, read from its own module's globals when it runs (never
# captured at import, so rebinding a module attribute reaches every call):
#   row(g, l)                  node g's layer-l encoding vector (nu or mu)
#   finish(profile, z, l, x)   node z's layer-l row block from a solved block
#   vandermonde                rows are powers of the node x-values
#   window(profile, l, ids)    extractor R -> (S, T) for one responder window
#   response(profile, g, l, S, T)  node g's layer-l response slice for (S, T)
#   solve(blocks, erased, l, profile)  full-stack block solver -> (S, T, bad)
#   layout(m, profile)         MessageMatrices -> message symbols


def _assemble_node(profile, z, tilde_z):
    rows = [[s for blk in tilde_z[l] for s in blk] for l in range(profile.q)]
    return mat_mul(profile.field, profile.points.basis(z), rows)


def _regenerate(z, batches, profile, mode, row, finish):
    """Plain/detect repair; each block is solved from the first d helpers,
    and detect alarms when helper d's symbol disagrees with the solution."""
    F = profile.field
    detect = mode == "detect"
    counts = request_counts(profile, "repair", mode, len(batches))
    tilde = []
    for l in range(profile.q):
        d, need = profile.d[l], counts[l]
        helpers = _contributors(batches, l)[:need]
        if len(helpers) < need:
            raise NotEnoughHelpers(f"{'detect ' if detect else ''}layer {l} "
                                   f"needs {need} helpers, got {len(helpers)}")
        ids = [b.helper_id for b in helpers]
        V = [row(g, l) for g in ids]
        # the shifted window must be regular for the check to equal a solve
        if detect and not det_nonzero(F, V[1:]):
            raise SingularSystem(f"{d}x{d} system singular")
        layer_rows = []
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
                return RepairReport(mode=mode, ok=False,
                                    alarm={"layer": l, "block": t})
            layer_rows.append(finish(profile, z, l, x))
        tilde.append(layer_rows)
    return RepairReport(mode=mode, ok=True, y=_assemble_node(profile, z, tilde))


def _failed(report_type, failure, found, tallies):
    return report_type(mode="recover", ok=False, failure=failure,
                       corrupted=frozenset(found), tallies=tallies)


def _regenerate_recover(z, batches, profile, prior_flags, row, finish,
                        vandermonde):
    """Full-strength repair: decode every block against all other nodes.

    ``vandermonde``: the rows are powers of the node x-values, so the
    decoder may interpolate (Welch-Berlekamp) instead of searching supports.
    """
    F = profile.field
    q2 = profile.n_nodes
    helpers = sorted(batches, key=lambda b: b.helper_id)
    if len(helpers) != q2 - 1:
        raise NotEnoughHelpers(f"recovery needs {q2 - 1} batches, got {len(helpers)}")
    ids = [b.helper_id for b in helpers]
    points = [profile.x_value(g) for g in ids] if vandermonde else None
    flags = set(prior_flags)
    found = set()
    tallies = {}
    cap = (q2 - profile.d[-1] - 1) // 2
    tilde = [[None] * profile.blocks(l) for l in range(profile.q)]
    for l in range(profile.q - 1, -1, -1):
        gen = [row(g, l) for g in ids]
        sigma = sum(1 for g in ids if g in flags)
        tallies[l] = {"erasures": sigma, "errors": 0}
        budget = min(q2 - profile.d[l] - 1, cap)
        if sigma > budget:
            return _failed(RepairReport, f"erasure count {sigma} exceeds "
                           f"layer-{l} budget {budget}", found, tallies)
        for t in range(profile.blocks(l)):
            word = [ERASED if g in flags else b.symbols[(l, t)]
                    for g, b in zip(ids, helpers)]
            try:
                res = decode(F, gen, word, points=points)
            except DecodeFailure as exc:
                return _failed(RepairReport, f"layer {l} block {t}: {exc}",
                               found, tallies)
            newly = {ids[i] for i in res.error_positions}
            flags |= newly
            found |= newly
            tallies[l]["errors"] += len(newly)
            tilde[l][t] = finish(profile, z, l, res.message)
    return RepairReport(
        mode="recover", ok=True, y=_assemble_node(profile, z, tilde),
        corrupted=frozenset(found), tallies=tallies,
    )


def _reconstruct(batches, profile, mode, window, response, layout):
    """Plain/detect reconstruction; each block is extracted from responders
    {0..k-1}, whose extractor is prepared once per layer.  Detect alarms on
    an asymmetric block or when responder k's row differs from its
    re-encoding under the extracted block."""
    detect = mode == "detect"
    counts = request_counts(profile, "reconstruct", mode, len(batches))
    m = MessageMatrices(s=[[] for _ in range(profile.q)],
                        t_=[[] for _ in range(profile.q)])
    for l in range(profile.q):
        k, need = profile.k[l], counts[l]
        resp = _contributors(batches, l)[:need]
        if len(resp) < need:
            raise NotEnoughHelpers(
                f"layer {l} needs {need} responders, got {len(resp)}")
        extract = window(profile, l, [b.helper_id for b in resp[:k]])
        a = profile.alpha[l]
        for t in range(profile.blocks(l)):
            R = [b.rows[l][t * a:(t + 1) * a] for b in resp]
            try:
                S, T = extract(R[:k])
            except AsymmetryDetected:
                if not detect:
                    raise
                S = None
            if detect and (S is None or R[k] != response(
                    profile, resp[k].helper_id, l, S, T)):
                return ReconstructReport(mode=mode, ok=False,
                                         alarm={"layer": l, "block": t})
            m.s[l].append(S)
            m.t_[l].append(T)
    return ReconstructReport(mode=mode, ok=True, message=layout(m, profile))


def _reconstruct_recover(batches, profile, prior_flags, window, response,
                         solve, layout):
    """Solve every block from the full response stack, erasing flagged and
    missing nodes; flags raised at one block are erasures for the next.
    A block whose every present row re-encodes from its extraction off the
    first k_l present ids (rebuilt only when those change) is kept as it is:
    every column word of ``solve`` is then a codeword, so within the budget
    ``solve`` would return the same block and flag no node."""
    q2 = profile.n_nodes
    rows_by_node = {b.helper_id: b.rows for b in batches}
    flags = set(prior_flags) | {g for g in range(q2) if g not in rows_by_node}
    found = set()
    tallies = {}
    m = MessageMatrices(s=[[None] * profile.blocks(l) for l in range(profile.q)],
                        t_=[[None] * profile.blocks(l) for l in range(profile.q)])
    for l in range(profile.q - 1, -1, -1):
        sigma = len(flags)
        tallies[l] = {"erasures": sigma, "errors": 0}
        # q^2 - k_l flags is the solvability frontier of both block solvers
        # (sigma + 2 tau + 1 <= q^2 - alpha_l, sigma + 2 tau <= q^2 - k_l)
        a, k, ids = profile.alpha[l], profile.k[l], None
        budget = q2 - k
        if sigma > budget:
            return _failed(ReconstructReport, f"flagged count {sigma} exceeds "
                           f"layer-{l} budget {budget}", found, tallies)
        for t in range(profile.blocks(l)):
            blocks = [None if g in flags else rows_by_node[g][l][t * a:(t + 1) * a]
                      for g in range(q2)]
            present = [g for g in range(q2) if blocks[g] is not None]
            if present[:k] != ids:
                ids = present[:k]
                try:
                    extract = window(profile, l, ids)
                except (LambdaCollision, SingularSystem):
                    extract = None
            S = None
            try:
                if extract:
                    S, T = extract([blocks[g] for g in ids])
            except AsymmetryDetected:
                pass
            if S is not None and all(blocks[g] == response(profile, g, l, S, T)
                                     for g in present):
                m.s[l][t], m.t_[l][t] = S, T
                continue
            try:
                S, T, newly = solve(blocks, frozenset(flags), l, profile)
            except DecodeFailure as exc:
                return _failed(ReconstructReport, f"layer {l} block {t}: {exc}",
                               found, tallies)
            newly -= flags
            flags |= newly
            found |= newly
            tallies[l]["errors"] += len(newly)
            m.s[l][t], m.t_[l][t] = S, T
    return ReconstructReport(
        mode="recover", ok=True, message=layout(m, profile),
        corrupted=frozenset(found), tallies=tallies,
    )


# -- MSR repair -------------------------------------------------------------------


def _lambda_mix(profile, z, l, x):
    """Node z's layer-l block from a solved [S; T] row: x_S + lam_z x_T."""
    a = profile.alpha[l]
    return vec_mat(profile.field, [1, profile.lam[z]], [x[:a], x[a:]])


def _st_response(profile, g, l, S, T):
    """Node g's layer-l response slice for the block (S, T):
    nu_g [S; T] = mu_g S + lam_g mu_g T."""
    return vec_mat(profile.field, profile.nu_row(g, l), S + T)


def regenerate_plain(z, batches, profile: CodeProfile) -> RepairReport:
    return _regenerate(z, batches, profile, "plain", profile.nu_row, _lambda_mix)


def regenerate_detect(z, batches, profile: CodeProfile) -> RepairReport:
    return _regenerate(z, batches, profile, "detect", profile.nu_row, _lambda_mix)


def regenerate_recover(z, batches, profile: CodeProfile,
                       prior_flags=frozenset()) -> RepairReport:
    return _regenerate_recover(z, batches, profile, prior_flags, profile.nu_row,
                               _lambda_mix, vandermonde=False)


# -- MSR reconstruction -------------------------------------------------------------


class ExtractContext:
    """Per-(layer, responder set) inverses reused across the block loop."""

    def __init__(self, profile: CodeProfile, l: int, ids):
        F = profile.field
        a = profile.alpha[l]
        assert len(ids) == a + 1
        self.mu = [list(profile.mu_row(g, l)) for g in ids]
        self.lam = [profile.lam[g] for g in ids]
        if len(set(self.lam)) != len(self.lam):
            raise LambdaCollision(f"duplicate coefficients among nodes {ids}")
        self.phi_t = transpose(self.mu)
        self.pi_inv = [mat_inv(F, transpose(self.mu[:i] + self.mu[i + 1:]))
                       for i in range(a)]
        self.omega_inv = mat_inv(F, self.mu[:a])


def symmetric(M):
    """True when the square matrix M equals its transpose."""
    return all(M[i][j] == M[j][i] for i in range(len(M)) for j in range(i))


def extract_st(R, ids, l, profile: CodeProfile, ctx: ExtractContext = None):
    """Invert one block from alpha_l + 1 responses (symmetry-based).

    R: (alpha_l + 1) x alpha_l stack of response blocks, row order = ids.
    Returns (S, T); raises AsymmetryDetected when the solution is not
    symmetric (possible only with corrupt input).
    """
    if ctx is None:
        ctx = ExtractContext(profile, l, ids)
    F = profile.field
    a = profile.alpha[l]
    C, D = _pairs(F, mat_mul(F, R, ctx.phi_t), ctx.lam)
    S = _rebuild(F, C, ctx, a)
    T = _rebuild(F, D, ctx, a)
    for M, name in ((S, "S"), (T, "T")):
        if not symmetric(M):
            raise AsymmetryDetected(
                f"{name} block asymmetric at layer {l} (corrupt responses)"
            )
    return S, T


def _pairs(F, rhat, lam):
    """Solve C + lam_i D = rhat[i][j], C + lam_j D = rhat[j][i] for every
    pair of rows i < j.  Returns the symmetric C and D, ERASED on the
    diagonal and in the rows and columns of the rows that are None."""
    n = len(rhat)
    C = [[ERASED] * n for _ in range(n)]
    D = [[ERASED] * n for _ in range(n)]
    live = [i for i in range(n) if rhat[i] is not None]
    for x, i in enumerate(live):
        ri, lam_i = rhat[i], lam[i]
        for j in live[x + 1:]:
            dd = F.div(F.sub(ri[j], rhat[j][i]), F.sub(lam_i, lam[j]))
            C[i][j] = C[j][i] = F.sub(ri[j], F.mul(lam_i, dd))
            D[i][j] = D[j][i] = dd
    return C, D


def _rebuild(F, C, ctx, a):
    """Omega^-1 times the rows row_i(C without its diagonal) Pi_i^-1."""
    rows = [vec_mat(F, C[i][:i] + C[i][i + 1:], ctx.pi_inv[i]) for i in range(a)]
    return mat_mul(F, ctx.omega_inv, rows)


def _st_window(profile, l, ids):
    ctx = ExtractContext(profile, l, ids)
    return lambda R: extract_st(R, ids, l, profile, ctx)


def reconstruct_plain(batches, profile: CodeProfile) -> ReconstructReport:
    return _reconstruct(batches, profile, "plain", _st_window, _st_response,
                        message_from_st)


def reconstruct_detect(batches, profile: CodeProfile) -> ReconstructReport:
    return _reconstruct(batches, profile, "detect", _st_window, _st_response,
                        message_from_st)


def reconstruct_recover(batches, profile: CodeProfile,
                        prior_flags=frozenset()) -> ReconstructReport:
    return _reconstruct_recover(batches, profile, prior_flags, _st_window,
                                _st_response, rec_st, message_from_st)


def rec_st(blocks, erased, l, profile: CodeProfile):
    """Recover one (S, T) block from a full q^2-node response stack.

    ``blocks``: per node the alpha_l response slice, or None when the node is
    erased/missing.  Works whenever sigma + 2*tau + 1 <= q^2 - alpha_l (sigma
    prior erasures, tau undetected corrupt rows): the off-diagonal entries of
    C = Phi S' Phi^T form, per column, a length-(q^2-1) word of a dimension-
    alpha_l evaluation code; honest columns decode exactly, so corrupt rows
    collect votes from every honest column while honest rows cannot pass the
    vote threshold.  Returns (S, T, corrupt node ids).
    """
    F = profile.field
    q2 = profile.n_nodes
    a = profile.alpha[l]
    mu = profile.phi(l)
    sigma = len(erased)
    tau_bud = (q2 - a - 1 - sigma) // 2
    if tau_bud < 0:
        raise DecodeFailure(f"{sigma} erasures exceed the recovery budget")

    present = [g for g in range(q2) if g not in erased]
    for g in present:
        if blocks[g] is None:
            raise DecodeFailure(f"node {g} missing without being flagged")
    mu_t = transpose(mu)
    C, D = _pairs(F, [None if g in erased else vec_mat(F, blocks[g], mu_t)
                      for g in range(q2)], profile.lam)

    # column j's word is row j of the symmetric C (resp. D); its diagonal
    # entry is erased like a flagged node
    pts = [profile.x_value(g) for g in range(q2)]
    votes = {g: 0 for g in range(q2)}
    decoded = {}        # column j -> its C and D messages; failed columns are out
    for j in present:
        try:
            res = [decode(F, mu, W[j], tau_max=tau_bud, points=pts) for W in (C, D)]
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

    if not (symmetric(S) and symmetric(T)):
        raise DecodeFailure("recovered block not symmetric "
                            "(corruption beyond the budget)")

    corrupt = {g for g in present
               if blocks[g] != _st_response(profile, g, l, S, T)}
    if len(corrupt) > tau_bud:
        raise DecodeFailure(
            f"{len(corrupt)} mismatching rows exceed the budget {tau_bud}"
        )
    return S, T, corrupt
