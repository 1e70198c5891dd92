import random

import pytest

from hrgc import hmbr, hmsr
from hrgc.matrices import profile_new

# canonical profiles; session-scoped because delta selection for q=4 verifies
# every staged repair window


@pytest.fixture(scope="session")
def q3_msr():
    return profile_new("msr", 3, 8, (3, 2, 1), seed=2)


@pytest.fixture(scope="session")
def q4_msr():
    return profile_new("msr", 4, 37, (6, 5, 4, 3), seed=1)


@pytest.fixture(scope="session")
def q3_mbr():
    return profile_new("mbr", 3, 8, (3, 2, 1), k=(2, 2, 1), seed=3)


@pytest.fixture(scope="session")
def q4_mbr():
    return profile_new("mbr", 4, 37, (6, 5, 4, 3), k=(6, 5, 4, 3), seed=4)


# the honest-q5 bench workload's profiles


@pytest.fixture(scope="session")
def q5_msr():
    return profile_new("msr", 5, 34, (7, 6, 5, 4, 3), seed=1)


@pytest.fixture(scope="session")
def q5_mbr():
    return profile_new("mbr", 5, 34, (7, 6, 5, 4, 3), k=(7, 6, 5, 4, 3), seed=4)


def random_message(profile, seed):
    rng = random.Random(seed)
    return [rng.randrange(profile.field.order) for _ in range(profile.B)]


def encode_profile(profile, message):
    if profile.mode == "msr":
        return hmsr.encode(hmsr.arrange_st(message, profile), profile)
    return hmbr.encode_mbr(hmbr.arrange_m(message, profile), profile)


def block(m, profile, l, t):
    """Block t of layer l of the layer matrices m: its S and its T."""
    w = profile.blocks(l)
    return tuple([r[t * (len(r) // w):(t + 1) * (len(r) // w)] for r in M]
                 for M in (m.s[l], m.t_[l]))


# the symbol-by-symbol message layout, block by block: the reference for the
# profile's index table


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


def reference_blocks(message, profile):
    """(s, t_): s[l][t] and t_[l][t] are the S and T of block t of layer l.
    MSR fills every S block (layers, then blocks, ascending) and then every
    T block; MBR fills block by block a symmetric k_l x k_l S and then the
    rows of a k_l x (alpha_l - k_l) T."""
    it = iter(message)
    if profile.mode == "msr":
        return [[[_symmetric_block(it, a) for _ in range(profile.blocks(l))]
                 for l, a in enumerate(profile.alpha)] for _ in range(2)]
    s, t_ = [], []
    for l, (a, k) in enumerate(zip(profile.alpha, profile.k)):
        s.append([])
        t_.append([])
        for _ in range(profile.blocks(l)):
            s[l].append(_symmetric_block(it, k))
            t_[l].append([[next(it) for _ in range(a - k)] for _ in range(k)])
    return s, t_


def reference_message(s, t_, profile):
    """The message that the blocks s[l][t] and t_[l][t] hold."""
    if profile.mode == "msr":
        return [x for blocks in (s, t_) for layer in blocks for M in layer
                for x in _upper_triangle(M)]
    return [x for s_layer, t_layer in zip(s, t_)
            for S, T in zip(s_layer, t_layer)
            for x in _upper_triangle(S) + [y for row in T for y in row]]


def repair_batches(profile, nodes, z, mode):
    live = [g for g in range(profile.n_nodes) if g != z]
    plan = hmsr.staged_request_plan(profile, "repair", mode, live)
    return [hmsr.helper_response(nodes[g], profile, lvl, z) for g, lvl in plan]


def recon_batches(profile, nodes, mode):
    plan = hmsr.staged_request_plan(profile, "reconstruct", mode,
                                    range(profile.n_nodes))
    return [hmsr.recon_response(nodes[g], profile, lvl) for g, lvl in plan]


def corrupt_repair(batches, corrupt_ids, order, seed, layers=None):
    """Uniform random resampling of the help symbols of the corrupt nodes."""
    rng = random.Random(seed)
    out = []
    for b in batches:
        if b.helper_id not in corrupt_ids:
            out.append(b)
            continue
        symbols = dict(b.symbols)
        for key in sorted(symbols):
            if layers is None or key[0] in layers:
                symbols[key] = rng.randrange(order)
        out.append(hmsr.HelpSymbolBatch(b.helper_id, b.level, symbols=symbols))
    return out


def corrupt_recon(batches, corrupt_ids, order, seed, layers=None):
    rng = random.Random(seed)
    out = []
    for b in batches:
        if b.helper_id not in corrupt_ids:
            out.append(b)
            continue
        rows = {l: bytearray(r) for l, r in b.rows.items()}
        for l in sorted(rows):
            if layers is None or l in layers:
                rows[l] = bytearray(rng.randrange(order) for _ in rows[l])
        out.append(hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows))
    return out
