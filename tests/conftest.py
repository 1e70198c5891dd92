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


def random_message(profile, seed):
    rng = random.Random(seed)
    return [rng.randrange(profile.field.order) for _ in range(profile.B)]


def encode_profile(profile, message):
    if profile.mode == "msr":
        return hmsr.encode(hmsr.arrange_st(message, profile), profile)
    return hmbr.encode_mbr(hmbr.arrange_m(message, profile), profile)


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
        rows = {l: list(r) for l, r in b.rows.items()}
        for l in sorted(rows):
            if layers is None or l in layers:
                rows[l] = [rng.randrange(order) for _ in rows[l]]
        out.append(hmsr.HelpSymbolBatch(b.helper_id, b.level, rows=rows))
    return out
