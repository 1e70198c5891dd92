"""Layered MSR engine: encoding, staged repair, and file reconstruction.

Message layout: ``_arrange`` maps each row of the profile's index table
(``CodeProfile.layout``) over a message, giving each layer's S and T with
the blocks side by side, and ``_message`` reads it back.  Encoding evaluates
each column of S (resp. T) as a layered curve polynomial and stores, at node
g, the q x A slice Y_g = B_g * (U_g + Lambda_g E_g), Lambda_g the diagonal of
the layers' lambda_l(x_g), so that row l of B_g^{-1} Y_g splits into blocks
mu_{g,l} S_{l,t} + lambda_l(x_g) mu_{g,l} T_{l,t}
-- one inner product per helper is enough to repair.

A helper's layer rows stay bytes from the basis transform (``tilde_rows``)
to its help symbols (``helper_response``), which are ints keyed by the
profile's prebuilt (l, t) tuples, and to the rows of a reconstruction
(``recon_response``), which the window extractors multiply as bytes on
``Field.comb_bytes`` up to the message.  Rows are compared by value
(bytes, a liar's ``bytearray`` and a list of the same symbols are all one
row to the checks); node states stay lists because a repair reports one,
whose repr the outcome digest pins.

Repair and reconstruction run one plain/detect loop and one recover loop.
A repair is a reconstruction whose blocks are one help symbol wide: a help
symbol is f(x_g) for a polynomial f of degree below d_l, so the window maps
the first d_l helpers' symbols to the node's rows by reduced Lagrange basis
polynomials (``_repair``).  The blocks of a layer share their encoding
rows, so the plain/detect loop hands the responders' whole layer rows to
one window extractor per layer (a layer row holds the blocks side by side,
so ``row[c::alpha_l]`` is entry c of every block): a repair is M P, M the
window's map and the columns of P the blocks' help symbols.

Hostile-mode conventions: detect solves each layer once from the first
helper window and alarms at the lowest block where the extra helper's row
disagrees with that solution.  This is the alarm of solving the window
shifted by one again: the windows share every other row, a repair's
Lagrange weights of the extra helper have no zero entry (every shifted
window is regular), and both extractors return blocks
that reproduce every row of their window (``extract_st`` because a regular
window maps symmetric (S, T) pairs one to one onto its symbols,
``_extract_m`` as Omega T = R2 and Omega S + Delta_part T^t = R1) and are
exact on consistent rows.  An extractor also returns its lowest asymmetric
block (only MBR's S can be one), which ``_certified``, the one judge of a
layer's blocks in every mode, counts as bad like a block that re-encodes
to something else: detect alarms at the lowest bad block, plain raises
AsymmetryDetected at an asymmetric one, and recover keeps the blocks
before the lowest.  Recover, one loop for both operations, treats each
block as a word over the operation's nodes (every node but the target in a
repair, all q^2 in a reconstruction): a node that sent no batch is an
erasure, as is a previously flagged node.
It keeps the blocks that every present row re-encodes from a window
solution (the block solver would return them and flag no node) and sends
the others to the solver: ``decode`` for a repair, ``rec_st``/``rec_m`` for
a reconstruction.
Corruption flags accumulate across the strict (layer descending, block
ascending) recovery order within one call; keeping them across calls is the
simulator's job.

The encoder, the two loops and their adapters defined here are shared with
the MBR engine (``hmbr``), which passes its own repair divisor, encoding
rows, block extractor, block stacking and block solver; so are the message
layout and the request protocol: ``request_counts`` fixes each layer's
helpers.

Each step of the block algebra is written once.  ``_pairs`` solves
R Phi^T = C + Lambda D for every pair of rows, each entry bytes with one
symbol per block, for the window extractor ``extract_st`` (alpha_l + 1
rows, every block of a layer) and the recovery solver ``rec_st`` (all q^2
rows, erased ones None, one block); C and D are symmetric, so row j of each
is column j's word.  The extractor's products run on bytes rows that hold
every block, and its window inverts one matrix: row i of C = Phi S Phi^T is a polynomial of
degree below alpha_l at the window's x-values, so Lagrange weights complete
the diagonal of C's first alpha_l rows and columns, E = Omega S Omega^T,
and S = Omega^-1 E Omega^-T (T likewise from D).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dfield
from functools import reduce
from itertools import chain

from .decoder import ERASED, _poly_divmod, decode
from .errors import (
    AsymmetryDetected,
    DecodeFailure,
    LengthMismatch,
    NotEnoughHelpers,
    SingularSystem,
)
from .linalg import det_nonzero, mat_inv, mat_mul, solve_square, transpose
from .matrices import CodeProfile


# -- data types ---------------------------------------------------------------


@dataclass
class MessageMatrices:
    """The layer matrices of both codes, s[l] and t_[l]: layer l's blocks
    side by side.

    MSR: S and T blocks symmetric alpha_l x alpha_l.  MBR: S blocks symmetric
    k_l x k_l, T blocks k_l x (alpha_l - k_l).
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
    rows: dict = dfield(default=None)      # l -> bytes of A symbols (reconstruct)


@dataclass
class Report:
    """One operation's outcome: a repair sets ``y`` (the repaired node's
    q x A state), a reconstruction ``message``; each is None unless set."""
    mode: str
    ok: bool
    y: list | None = None
    message: list | None = None
    alarm: dict | None = None
    failure: str | None = None
    corrupted: frozenset = frozenset()
    tallies: dict = dfield(default_factory=dict)


# -- message arrangement --------------------------------------------------------


def arrange_st(message, profile: CodeProfile) -> MessageMatrices:
    return _arrange(message, profile)


def _arrange(message, profile):
    """The layer matrices: each row of the profile's index table, mapped."""
    if len(message) != profile.B:
        raise LengthMismatch(f"message length {len(message)} != B={profile.B}")
    get = message.__getitem__
    return MessageMatrices(*([[list(map(get, r)) for r in M] for M in mats]
                             for mats in zip(*profile.layout[0])))


def _message(profile, layers):
    """The message that every layer's (S, T) layer matrices hold: each index
    read at its first position in the profile's index table."""
    flat = list(chain.from_iterable(r for S, T in layers for r in S + T))
    return list(map(flat.__getitem__, profile.layout[1]))


# -- encoding -------------------------------------------------------------------


def _side_by_side(pieces):
    """The matrix whose rows hold the pieces' rows side by side."""
    return [list(chain.from_iterable(rows)) for rows in zip(*pieces)]


def _encode(m: MessageMatrices, profile: CodeProfile, row, stack):
    """The q^2 node states of the layer matrices m: node g's layer-l row is
    row(g, l) times ``stack`` of the layer's S and T."""
    F, n = profile.field, profile.n_nodes
    layers = [mat_mul(F, [row(g, l) for g in range(n)], stack(m.s[l], m.t_[l]))
              for l in range(profile.q)]
    return [NodeState(node_id=g, y=mat_mul(
                F, profile.points.basis(g), [M[g] for M in layers]))
            for g in range(n)]


def encode(st: MessageMatrices, profile: CodeProfile):
    """Produce the q^2 node states for an arranged message: node g's
    layer-l row is nu_{g,l} [S_l; T_l] =
    mu_{g,l} S_l + lambda_l(x_g) mu_{g,l} T_l."""
    return _encode(st, profile, profile.nu_row, _st_stack)


def tilde_rows(profile: CodeProfile, state: NodeState, level: int):
    """Rows 0..level of B_g^{-1} Y_g: row l carries the layer-l payload of
    node g.  Each row is bytes, one symbol per byte (the node file's row
    layout): ``helper_response`` slices it straight into the help-symbol
    product, and ``recon_response`` hands it on as it is."""
    F, A = profile.field, profile.A
    y = F.pack(state.y, A)
    return [F.comb_bytes(c, y, A)
            for c in profile.points.basis_inv(state.node_id)[:level + 1]]


def helper_response(state: NodeState, profile: CodeProfile, level: int,
                    target: int) -> HelpSymbolBatch:
    """Repair help symbols for layers 0..level, computed from local state
    only.  Each layer row stays bytes from the basis transform to the
    product, whose factor rows are its bytes slices; the symbols come out
    as ints, keyed by the profile's ``help_keys`` tuples, so a response
    builds no key."""
    assert state.node_id != target
    F = profile.field
    tilde = tilde_rows(profile, state, level)
    symbols = {}
    for l, (row, keys) in enumerate(zip(tilde, profile.help_keys)):
        a = profile.alpha[l]
        # block t's symbol is its slice of the row times mu_z: mu_z times the
        # matrix whose row j holds entry j of every block
        symbols.update(zip(keys, F.comb_bytes(
            profile.mu_row(target, l), [row[j::a] for j in range(a)],
            len(keys))))
    return HelpSymbolBatch(helper_id=state.node_id, level=level, symbols=symbols)


def recon_response(state: NodeState, profile: CodeProfile,
                   level: int) -> HelpSymbolBatch:
    """Reconstruction rows: layer rows 0..level of B_g^{-1} Y_g, the bytes
    of ``tilde_rows``."""
    return HelpSymbolBatch(helper_id=state.node_id, level=level,
                           rows=dict(enumerate(tilde_rows(profile, state,
                                                          level))))


# -- staged request protocol ----------------------------------------------------


def request_counts(profile: CodeProfile, op: str, mode: str, n_live: int):
    """Helpers serving each layer in an (op, mode) round: d_l (repair) or k_l
    (reconstruct), one more in detect; in recover the n_live live nodes."""
    if mode == "recover":
        return [n_live] * profile.q
    extra = 1 if mode == "detect" else 0
    return [c + extra for c in (profile.d if op == "repair" else profile.k)]


def staged_request_plan(profile: CodeProfile, op: str, mode: str, live_ids):
    """[(helper_id, level)] over ``live_ids``, levels descending and ids
    ascending, such that ``request_counts`` helpers serve each layer (a
    helper asked at level j serves layers 0..j).  A plain or detect MSR
    reconstruction passes over a live node that would join the first
    counts[l] helpers of a layer l (its window of k_l, and in detect the
    extra responder) holding a helper with the same lambda_l, when enough
    other nodes remain: an extra responder that shares lambda_l with the
    window can leave a lie blind.  When too few remain it keeps only the
    window's k_l distinct (a window that shares lambda_l is singular)."""
    live = sorted(live_ids)
    counts = request_counts(profile, op, mode, len(live))
    if len(live) < counts[0]:
        raise NotEnoughHelpers(f"need {counts[0]} live helpers, have {len(live)}")
    if profile.lam and op == "reconstruct" and mode != "recover":
        for sizes in (counts, profile.k):
            chosen, seen = [], [set() for _ in range(profile.q)]
            for g in live:
                if len(chosen) == counts[0]:
                    break
                window = [l for l in range(profile.q) if len(chosen) < sizes[l]]
                if all(profile.lam[l][g] not in seen[l] for l in window):
                    chosen.append(g)
                    for l in window:
                        seen[l].add(profile.lam[l][g])
            if len(chosen) == counts[0]:
                live = chosen
                break
    helpers, above = iter(live), counts[1:] + [0]
    return [(next(helpers), j) for j in range(profile.q - 1, -1, -1)
            for _ in range(counts[j] - above[j])]


def _contributors(batches, l):
    return sorted((b for b in batches if b.level >= l), key=lambda b: b.helper_id)


# -- shared repair/reconstruct loops ---------------------------------------------
#
# Both engines run two loops, ``_plain_detect`` and ``_recover``, through one
# adapter per operation (``_repair``, ``_reconstruct``).  The adapter picks
# the loop by mode and hands it the operation's row reader rows(g, l), its
# window, its encode(l, ids, gs) (the rows whose products with stack(S, T)
# of window ids's extraction are nodes gs' rows: the encoding rows, or in
# an MSR repair Lagrange weights of the window) and its output, which makes
# the report's fields from each layer's (S, T) pieces, joined side by side.
# The entry points pass what differs between the codes, read from their own
# module's globals when they run (never captured at import, so rebinding a
# module attribute reaches every call):
#   row(g, l)                  node g's layer-l encoding vector (nu or mu)
#   divisor(profile, z, l)     the monic r with node z's layer-l row
#                              f mod r, f of degree < d_l the polynomial
#                              whose values f(x_g) are the help symbols
#   stack(S, T)                the matrix whose product with row(g, l) is
#                              node g's response to the blocks (S, T)
#   window(profile, l, ids)    reconstruction extractor R -> (S, T, asym)
#                              for one responder window, asym the lowest
#                              asymmetric block (MBR's) or None
#   solve(blocks, erased, l, profile)  full-stack block solver -> (S, T, bad)
#
# Blocks side by side: a layer row, the S and T that the extractors take and
# return for a layer, and a piece hold blocks in order, each block's columns
# after the previous block's.  With one block this is the block itself, so
# the block solvers share these helpers.


def _interleave(cols):
    """The bytearray row whose entries c, c + n, c + 2n, ... are cols[c]
    (n = len(cols))."""
    n = len(cols)
    row = bytearray(n * len(cols[0]) if cols else 0)
    for c, col in enumerate(cols):
        row[c::n] = col
    return row


def _product(F, M, rows):
    """M times the matrix of the bytes-like ``rows``, one
    ``Field.comb_bytes`` per row of M: bytes rows."""
    width = len(rows[0])
    return [F.comb_bytes(c, rows, width) for c in M]


def _first_difference(u, v):
    """The lowest index at which u and v differ (the shorter length when one
    is a proper prefix of the other), or None when they hold the same
    symbols, whether as lists or bytes."""
    if u != v:
        for i, (x, y) in enumerate(zip(u, v)):
            if x != y:
                return i
        if len(u) != len(v):
            return min(len(u), len(v))
    return None


def _asymmetric_block(M):
    """The lowest block of M (n x n blocks side by side, n = len(M)) that
    is not symmetric, or None."""
    n = len(M)
    return min((t for i in range(n) for j in range(i)
                if (t := _first_difference(M[i][j::n], M[j][i::n])) is not None),
               default=None)


def _certified(F, extract, window_rows, checked, enc, stack, a):
    """The blocks that extract from ``window_rows`` (alpha_l = a wide, side
    by side) and re-encode, under the rows ``enc`` times ``stack`` of the
    extraction, to the rows ``checked``.

    Returns (S, T, bad): ``bad`` is the lowest block that is asymmetric or
    re-encodes to anything else (None when no block does), and S and T hold
    the blocks before it side by side (rows of no symbol when it is 0)."""
    S, T, bad = extract(window_rows)
    if checked and bad != 0:        # no block to keep, none to check
        for r, e in zip(checked, _product(F, enc, stack(S, T))):
            t = _first_difference(r, e)
            if t is not None and (bad is None or t // a < bad):
                bad = t // a
    if bad is not None:
        w = len(window_rows[0]) // a
        S, T = ([r[:len(r) // w * bad] for r in M] for M in (S, T))
    return S, T, bad


def _repair(z, batches, profile, mode, divisor, prior_flags=frozenset()):
    """Repair of node z.  A helper's layer-l row is its help symbols, one
    per block: node g's symbol is f(x_g) for a polynomial f of degree below
    d_l, and node z's layer-l rows are f mod ``divisor(profile, z, l)``.  So
    the window of the first d_l helpers maps their symbols straight to node
    z's rows: column i of its map is l_i mod the divisor, l_i the Lagrange
    basis polynomial of the window's x-values at helper i (``_remainder_map``
    for MSR; MBR, whose divisor x^alpha_l leaves f as it is, still inverts
    its mu rows, the same map).  An extraction's S is node z's rows and its
    T is f in the basis whose evaluation at x_g is ``encode``'s row of node
    g, for detect's extra-helper check and recover's kept-block
    certification: for MSR, f's values at the window, its symbols, with the
    Lagrange weights l(x_g); for MBR, f's coefficients, node z's rows, with
    the mu rows.  A kept recover block is what ``decode``'s codeword exit
    returns, flagging no node; other blocks are Reed-Solomon words over
    every node but z, missing ones erased, which ``decode`` solves by
    Welch-Berlekamp from the node x-values for f."""
    F = profile.field
    q2 = profile.n_nodes
    symbols = {b.helper_id: b.symbols for b in batches}
    x = profile.x_value
    deltas = {}     # an MSR window's ids -> their barycentric products

    def rows(g, l):
        return bytes(map(symbols[g].__getitem__, profile.help_keys[l]))

    def xs_deltas(ids):
        xs = [x(g) for g in ids]
        key = tuple(ids)
        if key not in deltas:
            deltas[key] = _deltas(F, xs)
        return xs, deltas[key]

    def window(profile, l, ids):
        if profile.lam:
            M = _remainder_map(F, *xs_deltas(ids), divisor(profile, z, l))
            return lambda R: (_product(F, M, R), R, None)
        d = len(ids)
        V = [profile.mu_row(g, l) for g in ids]
        if mode == "detect" and not det_nonzero(F, V[1:] + [
                profile.mu_row(_contributors(batches, l)[d].helper_id, l)]):
            raise SingularSystem(f"{d}x{d} system singular")
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        try:
            M = solve_square(F, V, eye)
        except SingularSystem:
            if mode == "detect":
                raise
            raise SingularSystem(
                f"repair window {ids} singular at layer {l}") from None

        def extract(R):
            S = _product(F, M, R)
            return S, S, None
        return extract

    def encode(l, ids, gs):
        if profile.lam:
            return _lagrange_weights(F, *xs_deltas(ids), [x(g) for g in gs])
        return [profile.mu_row(g, l) for g in gs]

    def f_basis(S, T):
        return T

    def output(layers):
        # S's row c holds entry c of every block: one layer row
        tilde = [_interleave(_side_by_side([S for S, _ in layers[l]]))
                 for l in range(profile.q)]
        return {"y": mat_mul(F, profile.points.basis(z), tilde)}

    if mode != "recover":
        return _plain_detect(batches, rows, profile, mode, profile.d,
                             [1] * profile.q, encode, f_basis, window, output)
    others = [g for g in range(q2) if g != z]
    points = [x(g) for g in others]
    cap = (q2 - profile.d[-1] - 1) // 2

    def solve(blocks, erased, l, profile):
        powers = profile.powers(profile.d[l])
        res = decode(F, [powers[g] for g in others],
                     [ERASED if b is None else b[0] for b in blocks], points=points)
        return ([[v] for v in _poly_divmod(F, res.message,
                                           divisor(profile, z, l))[1]], [],
                {others[i] for i in res.error_positions})

    return _recover(
        batches, others, rows, prior_flags, profile, profile.d,
        [range(q2)] * profile.q, [1] * profile.q,
        [min(q2 - d - 1, cap) for d in profile.d], "erasure",
        encode, f_basis, window, solve, output)


def _reconstruct(batches, profile, mode, row, stack, window, solve,
                 prior_flags=frozenset()):
    """Reconstruction from the nodes' layer rows, whose blocks are alpha_l
    wide.  In recover, a block that fails the layer pass goes to the
    full-stack block solver ``solve``."""
    q2 = profile.n_nodes
    rows_by_node = {b.helper_id: b.rows for b in batches}

    def rows(g, l):
        return rows_by_node[g][l]

    def encode(l, ids, gs):
        return [row(g, l) for g in gs]

    def output(layers):
        return {"message": _message(profile, [
            map(_side_by_side, zip(*pieces)) for pieces in layers])}

    if mode != "recover":
        return _plain_detect(batches, rows, profile, mode, profile.k,
                             profile.alpha, encode, stack, window, output)
    # q^2 - k_l flags is the solvability frontier of both block solvers
    # (sigma + 2 tau + 1 <= q^2 - alpha_l, sigma + 2 tau <= q^2 - k_l; MSR's
    # rec_st also erases the pairs that share lambda_l and refuses past its
    # own budget).  An MSR window needs distinct lambda_l, MBR's none.
    return _recover(
        batches, range(q2), rows, prior_flags, profile, profile.k,
        profile.lam or [range(q2)] * profile.q, profile.alpha,
        [q2 - k for k in profile.k], "flagged",
        encode, stack, window, solve, output)


def _plain_detect(batches, rows, profile, mode, sizes, widths, encode, stack,
                  window, output):
    """The plain/detect loop of both operations, layers ascending.  Layer l
    reads ``rows(g, l)`` (blocks side by side, ``widths[l]`` symbols each)
    from the first ``sizes[l]`` batches of level l or more, ids ascending,
    one more in detect; the window of the first ``sizes[l]`` extracts every
    block at once.  A block that is asymmetric, or whose re-encoding differs
    from the extra row, is an alarm in detect; plain, which has no extra
    row, raises AsymmetryDetected at an asymmetric block.  Returns the
    Report with the fields that ``output`` makes of the layers, one piece
    each."""
    F = profile.field
    extra = 1 if mode == "detect" else 0
    layers = []
    for l in range(profile.q):
        k = sizes[l]
        ids = [b.helper_id for b in _contributors(batches, l)][:k + extra]
        if len(ids) < k + extra:
            raise NotEnoughHelpers(
                f"layer {l} needs {k + extra} helpers, got {len(ids)}")
        R = [rows(g, l) for g in ids]
        S, T, bad = _certified(F, window(profile, l, ids[:k]), R[:k], R[k:],
                               encode(l, ids[:k], ids[k:]) if extra else [],
                               stack, widths[l])
        if bad is not None:
            if not extra:
                raise AsymmetryDetected("S block asymmetric (corrupt responses)")
            return Report(mode=mode, ok=False, alarm={"layer": l, "block": bad})
        layers.append([(S, T)])
    return Report(mode=mode, ok=True, **output(layers))


def _window_ids(present, k, values):
    """The first k ``present`` nodes g with pairwise-distinct values[g], or
    the first k when fewer are distinct."""
    seen, ids = set(), []
    for g in present:
        if values[g] not in seen:
            seen.add(values[g])
            ids.append(g)
            if len(ids) == k:
                return ids
    return present[:k]


def _recover(batches, nodes, rows, flags, profile, sizes, keys, widths,
             budgets, noun, encode, stack, window, solve, output):
    """The recover loop of both operations, layers descending.  Node g's
    layer-l row ``rows(g, l)`` holds the blocks side by side, ``widths[l]``
    symbols each.  The ``nodes`` that sent no batch are flagged before the
    first layer, flagged nodes are erased, flags raised at one block are
    erasures for the next, and a layer with more than ``budgets[l]`` flagged
    nodes fails.  One pass extracts every block left in the layer from the
    first ``sizes[l]`` present nodes whose ``keys[l][g]`` differ (a window of
    nodes that share one is singular) and keeps the blocks before
    the first one that some present row does not re-encode from (every word
    of ``solve`` is then a codeword, so within the budget ``solve`` would
    return the same block and flag no node); that block goes to ``solve``,
    and the next pass starts after it.  Returns the Report with the fields
    that ``output`` makes of each layer's (S, T) pieces."""
    F = profile.field
    flags = set(flags) | (set(nodes) - {b.helper_id for b in batches})
    found = set()
    tallies = {}
    layers = [[] for _ in range(profile.q)]
    for l in range(profile.q - 1, -1, -1):
        sigma = sum(1 for g in nodes if g in flags)
        tallies[l] = {"erasures": sigma, "errors": 0}
        if sigma > budgets[l]:
            return Report(mode="recover", ok=False, failure=f"{noun} count "
                          f"{sigma} exceeds layer-{l} budget {budgets[l]}",
                          corrupted=frozenset(found), tallies=tallies)
        a, k, w = widths[l], sizes[l], profile.blocks(l)
        layer = {g: rows(g, l) for g in nodes if g not in flags}
        ids = last = None
        t = 0
        while t < w:
            present = [g for g in nodes if g not in flags]
            if present != last:
                last = present
                win = _window_ids(present, k, keys[l])
                if win != ids:
                    ids = win
                    try:
                        extract = window(profile, l, ids)
                    except SingularSystem:
                        extract = None
                enc = encode(l, ids, present)
            if extract:
                R = [layer[g][t * a:] for g in present]
                S, T, bad = _certified(F, extract, [layer[g][t * a:] for g in ids],
                                       R, enc, stack, a)
                layers[l].append((S, T))
                if bad is None:
                    break
                t += bad
            blocks = [None if g in flags else layer[g][t * a:(t + 1) * a]
                      for g in nodes]
            try:
                S, T, newly = solve(blocks, frozenset(flags), l, profile)
            except DecodeFailure as exc:
                return Report(mode="recover", ok=False,
                              failure=f"layer {l} block {t}: {exc}",
                              corrupted=frozenset(found), tallies=tallies)
            newly -= flags
            flags |= newly
            found |= newly
            tallies[l]["errors"] += len(newly)
            layers[l].append((S, T))
            t += 1
    return Report(mode="recover", ok=True, corrupted=frozenset(found),
                  tallies=tallies, **output(layers))


# -- MSR repair -------------------------------------------------------------------


def _deltas(F, xs):
    """prod_{j != i} (x_i - x_j) for each of the distinct points x_i of xs."""
    return [reduce(F.mul, [F.sub(x, y) for y in xs if y != x], 1) for x in xs]


def _lagrange_weights(F, xs, deltas, points):
    """Per point x, [l_i(x)], l_i the Lagrange basis polynomials of the
    distinct points xs, whose ``_deltas`` are ``deltas``: the weights whose
    combination of the values f(x_i) is f(x) for every f of degree below
    len(xs).  Off the points, l_i(x) is
    prod_j (x - x_j) / ((x - x_i) delta_i), never zero."""
    inverses = [F.inv(delta) for delta in deltas]
    rows = []
    for x in points:
        if x in xs:
            rows.append([int(x == y) for y in xs])
            continue
        diffs = [F.sub(x, y) for y in xs]
        rows.append(F.scale(reduce(F.mul, diffs, 1),
                            [F.div(c, dx) for c, dx in zip(inverses, diffs)]))
    return rows


def _divide_linear(F, f, x0):
    """(f div (x - x0), f(x0)) by synthetic division, coefficients lowest
    first."""
    acc, out = 0, []
    for c in reversed(f):
        acc = F.add(F.mul(acc, x0), c)
        out.append(acc)
    value = out.pop()
    out.reverse()
    return out, value


def _remainder_map(F, xs, deltas, r):
    """The matrix whose column i is l_i mod r, l_i the Lagrange basis
    polynomial of the distinct points xs at xs[i] (``deltas`` their
    ``_deltas``) and r monic of degree alpha (coefficients lowest first):
    its product with the values f(x_i) is f mod r for every f of degree
    below len(xs).

    l_i = Q_i / delta_i for Q_i = P / (x - x_i), P = prod_j (x - x_j).  With
    P_r = P mod r, g_i = (P_r - P_r(x_i)) / (x - x_i) and
    h_i = (r - r(x_i)) / (x - x_i), (x - x_i)(g_i + s h_i) is
    P_r + s r - P_r(x_i) - s r(x_i): so Q_i mod r = g_i + s h_i for
    s = -P_r(x_i) / r(x_i), O(alpha) per point besides delta_i.  When
    r(x_i) = 0, x - x_i is no unit mod r, and Q_i itself is reduced."""
    P = [1]
    for xi in xs:
        P = F.axpy([0] + P, F.neg(xi), P + [0])
    P_r = _poly_divmod(F, P, r)[1]
    cols = []
    for xi, delta in zip(xs, deltas):
        h, r_at = _divide_linear(F, r, xi)
        if r_at:
            g, p_at = _divide_linear(F, P_r, xi)
            u = F.axpy(g + [0], F.neg(F.div(p_at, r_at)), h)
        else:
            u = _poly_divmod(F, _divide_linear(F, P, xi)[0], r)[1]
        cols.append(F.scale(F.inv(delta), u))
    return transpose(cols)


def _lambda_divisor(profile, z, l):
    """lambda_l - lambda_l(x_z): a help symbol f(x_g) = nu_g [a; b] is the
    value of f = a + lambda_l b (deg a, b < alpha_l), and node z's layer-l
    row a + lambda_l(x_z) b is f mod this divisor."""
    F = profile.field
    lam = profile.lam_poly[l]
    return [F.sub(lam[0], profile.lam[l][z]), *lam[1:]]


def _st_stack(S, T):
    """[S; T]: nu_g [S; T] = mu_g S + lambda_l(x_g) mu_g T is node g's
    response."""
    return S + T


def regenerate_plain(z, batches, profile: CodeProfile) -> Report:
    return _repair(z, batches, profile, "plain", _lambda_divisor)


def regenerate_detect(z, batches, profile: CodeProfile) -> Report:
    return _repair(z, batches, profile, "detect", _lambda_divisor)


def regenerate_recover(z, batches, profile: CodeProfile,
                       prior_flags=frozenset()) -> Report:
    return _repair(z, batches, profile, "recover", _lambda_divisor,
                   prior_flags)


# -- MSR reconstruction -------------------------------------------------------------


class ExtractContext:
    """The window of layer l and the responders ``ids``, built once and
    reused across the blocks: the field, the layer's width alpha_l, the
    responders' mu rows and lambda_l values, Omega^-1 (Omega the first
    alpha_l mu rows) and the Lagrange weights that complete the diagonal of
    C = Phi S Phi^T."""

    def __init__(self, profile: CodeProfile, l: int, ids):
        self.field = F = profile.field
        self.width = a = profile.alpha[l]
        assert len(ids) == a + 1
        self.mu = [list(profile.mu_row(g, l)) for g in ids]
        self.lam = [profile.lam[l][g] for g in ids]
        if len(set(self.lam)) < len(ids):
            # a pair that shares lambda_l gives one equation for two unknowns
            raise SingularSystem(f"window {list(ids)} shares a lambda_{l} value")
        # row i of C is p_i(x_j), p_i = mu_i S times the powers of x, of
        # degree below alpha_l: p_i(x_i) has weight -delta_i / delta_j on
        # p_i(x_j), delta_j = prod_{m != j} (x_j - x_m) over the window
        delta = _deltas(F, [profile.x_value(g) for g in ids])
        self.weights = [[F.neg(F.div(delta[i], delta[j]))
                         for j in range(a + 1) if j != i] for i in range(a)]
        self.omega_inv = mat_inv(F, self.mu[:a])


def extract_st(R, ctx: ExtractContext):
    """Invert the blocks of layer l from alpha_l + 1 responses through
    ``ctx``, their window (symmetry-based).

    R: one response row per responder, in the order of ``ctx``, holding the
    blocks side by side (one block: alpha_l symbols).  Returns (S, T), the
    blocks side by side in the same way.  The window maps symmetric (S, T)
    pairs one to one onto its alpha_l (alpha_l + 1) response symbols, so the
    blocks are symmetric and reproduce R, whatever R holds.
    """
    F, a = ctx.field, ctx.width
    w = len(R[0]) // a
    # R Phi^t for every responder and block in one product: row c of the
    # right factor holds entry c of every block of every responder, so
    # responder i's w columns of product row j are its rhat entry j
    P = _product(F, ctx.mu, [b"".join(r[c::a] for r in R) for c in range(a)])
    C, D = _pairs(F, [[row[i * w:(i + 1) * w] for row in P]
                      for i in range(a + 1)], ctx.lam)
    return _rebuild(F, C, D, ctx, w)


def _pairs(F, rhat, lam):
    """Solve C + lam_i D = rhat[i][j], C + lam_j D = rhat[j][i] for every
    pair of rows i < j with lam_i != lam_j, with every entry bytes (one
    symbol per block): D_ij = (r_ij - r_ji) / (lam_i - lam_j) and
    C_ij = r_ij - lam_i D_ij.  The pairs with one difference lam_i - lam_j
    share D's coefficients and the pairs with one lam_i share C's, so each
    group is one two-term ``Field.comb_bytes`` (``_fill``).  Returns the
    symmetric C and D, ERASED on the diagonal, at the pairs that share lam,
    and in the rows and columns of the rows that are None."""
    n = len(rhat)
    C = [[ERASED] * n for _ in range(n)]
    D = [[ERASED] * n for _ in range(n)]
    live = [i for i in range(n) if rhat[i] is not None]
    by_difference, by_lam = {}, {}
    for x, i in enumerate(live):
        for j in live[x + 1:]:
            if lam[j] != lam[i]:
                by_difference.setdefault(F.sub(lam[i], lam[j]), []).append(
                    (i, j))
                by_lam.setdefault(lam[i], []).append((i, j))
    for d, pairs in by_difference.items():
        inv = F.inv(d)
        _fill(F, D, pairs, (inv, F.neg(inv)), [rhat[i][j] for i, j in pairs],
              [rhat[j][i] for i, j in pairs])
    for lam_i, pairs in by_lam.items():
        _fill(F, C, pairs, (1, F.neg(lam_i)), [rhat[i][j] for i, j in pairs],
              [D[i][j] for i, j in pairs])
    return C, D


def _fill(F, M, pairs, coeffs, u, v):
    """M_ij = M_ji = coeffs[0] u[p] + coeffs[1] v[p] for each pair
    p = (i, j) of ``pairs``, in one ``Field.comb_bytes`` over the entries
    joined end to end."""
    w = len(u[0])
    out = F.comb_bytes(coeffs, (b"".join(u), b"".join(v)), w * len(pairs))
    for y, (i, j) in enumerate(pairs):
        M[i][j] = M[j][i] = out[y * w:(y + 1) * w]


def _rebuild(F, C, D, ctx, w):
    """(S, T), the blocks side by side, from the window's C = Phi S Phi^T
    and D = Phi T Phi^T (bytes of w blocks, diagonal unknown).  The first
    alpha_l rows and columns of C, diagonal completed, are
    E = Omega S Omega^T, so S = Omega^-1 E Omega^-T; T likewise from D.  Both
    are solved together on rows whose entry j is [C_ij || D_ij]."""
    a, n = ctx.width, 2 * w
    E = []
    for i, weights in enumerate(ctx.weights):
        known = [C[i][j] + D[i][j] for j in range(a + 1) if j != i]
        known.insert(i, F.comb_bytes(weights, known, n))
        E.append(b"".join(known[:a]))
    # Omega^-1 E; then Omega^-1 times its transpose, whose row j holds
    # entry j of every row: entry r of row c of the result is S_cr (T_cr)
    G = _product(F, ctx.omega_inv, E)
    K = _product(F, ctx.omega_inv, [b"".join(g[j * n:(j + 1) * n] for g in G)
                                    for j in range(a)])
    return tuple([_interleave([k[r * n + h:r * n + h + w] for r in range(a)])
                  for k in K] for h in (0, w))


def _st_window(profile, l, ids):
    ctx = ExtractContext(profile, l, ids)
    # a symmetric extraction: no asymmetric block
    return lambda R: (*extract_st(R, ctx), None)


def reconstruct_plain(batches, profile: CodeProfile) -> Report:
    return _reconstruct(batches, profile, "plain", profile.nu_row, _st_stack,
                        _st_window, rec_st)


def reconstruct_detect(batches, profile: CodeProfile) -> Report:
    return _reconstruct(batches, profile, "detect", profile.nu_row, _st_stack,
                        _st_window, rec_st)


def reconstruct_recover(batches, profile: CodeProfile,
                        prior_flags=frozenset()) -> Report:
    return _reconstruct(batches, profile, "recover", profile.nu_row, _st_stack,
                        _st_window, rec_st, prior_flags)


def rec_st(blocks, erased, l, profile: CodeProfile):
    """Recover one (S, T) block from a full q^2-node response stack.

    ``blocks``: per node the alpha_l response slice, or None when the node is
    erased/missing.  Works whenever sigma + 2*tau + 1 + c <= q^2 - alpha_l
    (sigma prior erasures, tau undetected corrupt rows, c + 1 the most
    present nodes that share a value of lambda_l; the fibre rule keeps
    alpha_l + c <= alpha_0): the off-diagonal entries of C = Phi S' Phi^T
    form, per column, a length-(q^2-1) word of a dimension-alpha_l
    evaluation code, in which the nodes that share the column's lambda_l are
    erased too; each column decodes to its own budget, honest columns
    decode exactly, so corrupt rows collect votes from every honest column
    they do not share lambda_l with while honest rows cannot pass the vote
    threshold, the smallest column budget.  Returns (S, T, corrupt node ids).

    A liar corrupts its whole row, so the words of a block share their error
    positions: each word is decoded with the nodes found in error by the
    earlier words (the C word's go to the D word of the same column) as
    ``suspects``, and once the first words have named the liars the others
    take ``decode``'s suspect exit instead of a Welch-Berlekamp solve, with
    the result that solve returns.  The column of a node named before its
    turn is decoded last, and only when it can count: when its node has not
    yet collected more than the threshold of votes, or when its one vote
    per node could move a column across the threshold.  Votes, columns and
    failures are therefore those of decoding every column in full.
    """
    F = profile.field
    q2 = profile.n_nodes
    a = profile.alpha[l]
    mu = profile.phi(l)
    lam = profile.lam[l]
    sigma = len(erased)
    present = [g for g in range(q2) if g not in erased]
    # column j's budget: its word of q^2 - 1 - sigma usable entries loses
    # the other present nodes with j's lambda_l
    share = Counter(lam[g] for g in present)
    tau_max = {j: (q2 - a - sigma - share[lam[j]]) // 2 for j in present}
    tau_bud = min(tau_max.values(), default=-1)
    if tau_bud < 0:
        raise DecodeFailure(f"{sigma} erasures exceed the recovery budget")

    for g in present:
        if blocks[g] is None:
            raise DecodeFailure(f"node {g} missing without being flagged")
    # rhat of every present node in one product: entry x of row j is
    # present[x]'s rhat entry j; one block, so every entry of rhat, C and D
    # is bytes of one symbol
    P = _product(F, mu, [bytes(blocks[g][c] for g in present)
                         for c in range(a)])
    rhat = [None] * q2
    for x, g in enumerate(present):
        rhat[g] = [row[x:x + 1] for row in P]
    C, D = _pairs(F, rhat, lam)

    # column j's word is row j of the symmetric C (resp. D); its diagonal
    # entry is erased like a flagged node
    pts = [profile.x_value(g) for g in range(q2)]
    votes = {g: 0 for g in range(q2)}
    decoded = {}        # column j -> its C and D messages; failed columns are out
    named = set()       # nodes in error in an earlier word: the next suspects

    def decode_column(j):
        try:
            res = []
            for W in (C, D):
                res.append(decode(F, mu, [v if v is ERASED else v[0] for v in W[j]],
                                  tau_max=tau_max[j], points=pts, suspects=named))
                named.update(res[-1].error_positions)
        except DecodeFailure:
            return
        decoded[j] = [r.message for r in res]
        for g in res[0].error_positions | res[1].error_positions:
            votes[g] += 1

    # a named node's column waits: it counts only if its node may still be
    # trusted, or if its one vote per node may move a column across the
    # threshold
    later = []
    for j in present:
        if j in named:
            later.append(j)
        else:
            decode_column(j)
    if any(votes[j] <= tau_bud for j in later) or any(
            tau_bud - len(later) < votes[j] <= tau_bud for j in decoded):
        for j in later:
            decode_column(j)

    good = [j for j in sorted(decoded) if votes[j] <= tau_bud]
    if len(good) < a:
        raise DecodeFailure(
            f"only {len(good)} trustworthy columns for dimension {a}"
        )
    chosen = good[:a]
    minv = mat_inv(F, transpose([mu[j] for j in chosen]))
    S = mat_mul(F, transpose([decoded[j][0] for j in chosen]), minv)
    T = mat_mul(F, transpose([decoded[j][1] for j in chosen]), minv)

    if _asymmetric_block(S) is not None or _asymmetric_block(T) is not None:
        raise DecodeFailure("recovered block not symmetric "
                            "(corruption beyond the budget)")

    corrupt = {g for g, r in zip(present, mat_mul(
        F, [profile.nu_row(g, l) for g in present], S + T))
        if list(blocks[g]) != r}
    if len(corrupt) > tau_bud:
        raise DecodeFailure(
            f"{len(corrupt)} mismatching rows exceed the budget {tau_bud}"
        )
    return S, T, corrupt
