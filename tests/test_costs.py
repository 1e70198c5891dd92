"""Per-call fixed costs, pinned by counting calls, not by timing.

A command-line call builds one subcommand's parser and one field, a cluster
load or save builds the node file header, and so the profile digest, once
rather than once per node file, and a profile enumerates its curve points
once.  A reconstruction window inverts one matrix in closed form, its
extractor's kernel calls do not grow with the number of blocks, and an
honest encode and plain or detect repair and reconstruction run on the
bytes kernels alone.  A helper response makes one bytes-kernel call per
layer for the basis transform and one for the help symbols, and builds no
key tuple.  An MSR repair window is closed form, eliminates nothing and
computes its barycentric products once, an honest reconstruction and the
block solvers' own algebra eliminate nothing; an MBR repair inverts one
window per layer (and checks the shifted window once per layer in detect)
and the basis transform inverts B_0 by ``mat_inv``, which keeps the names
that the traced bench requires reached."""

import argparse
import random

import pytest

from conftest import (encode_profile, random_message, recon_batches,
                      repair_batches)
from hrgc import cli, curve, field, hmbr, hmsr, linalg, matrices, sim
from hrgc.matrices import profile_from_text, profile_new, profile_to_text


def _counting(monkeypatch, owner, name):
    """Record every call of ``owner.name`` and pass it through."""
    calls = []
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.fixture
def stored(q4_msr, tmp_path):
    """A q=4 MSR cluster on disk, holding a 40-byte file."""
    directory = str(tmp_path / "cluster")
    message = cli.pack_file(bytes(range(40)), q4_msr.q, q4_msr.B)
    sim.cluster_init(q4_msr, message, directory=directory)
    return directory


def test_reconstruct_call_builds_one_subparser_and_one_field(
        stored, tmp_path, monkeypatch, capsys):
    subparsers = _counting(monkeypatch, argparse._SubParsersAction,
                           "add_parser")
    fields = _counting(monkeypatch, field.Field, "__init__")
    out = tmp_path / "out.bin"
    assert cli.main(["reconstruct", "--cluster", stored,
                     "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == bytes(range(40))
    assert [args[1] for args in subparsers] == ["reconstruct"]
    assert len(fields) == 1


def test_save_and_load_cluster_build_one_node_header(q4_msr, stored,
                                                     monkeypatch):
    headers = _counting(monkeypatch, sim, "_node_header")
    digests = _counting(monkeypatch, sim, "profile_digest")
    cluster = sim.load_cluster(stored)
    assert (len(headers), len(digests)) == (1, 1)
    assert profile_to_text(cluster.profile) == profile_to_text(q4_msr)
    headers.clear()
    digests.clear()
    sim.save_cluster(cluster, stored)
    assert (len(headers), len(digests)) == (1, 1)


def test_repair_computes_the_digest_once(stored, monkeypatch):
    cluster = sim.load_cluster(stored)
    sim.fail_node(cluster, 5)
    digests = _counting(monkeypatch, sim, "profile_digest")
    report, _ = sim.repair(cluster, 5, "plain")
    assert report.ok
    # the node file's header and the manifest share one digest
    assert len(digests) == 1


def test_a_profile_enumerates_its_points_once(q4_msr, monkeypatch):
    points = _counting(monkeypatch, matrices, "enumerate_points")
    profile = profile_new("msr", 4, 37, (6, 5, 4, 3), seed=1)
    assert len(points) == 1
    assert profile_to_text(profile) == profile_to_text(q4_msr)
    points.clear()
    profile = profile_from_text(profile_to_text(q4_msr))
    assert len(points) == 1
    assert profile.points.points == q4_msr.points.points


def test_an_msr_window_inverts_one_matrix(q4_msr, monkeypatch):
    # Omega^-1 only, in closed form: the diagonal completion replaces the
    # alpha_l inverses of Phi without one row, and nothing is eliminated
    inverses = _counting(monkeypatch, hmsr, "_inverse")
    eliminations = _counting(monkeypatch, linalg, "_eliminate")
    for l, a in enumerate(q4_msr.alpha):
        ids = hmsr._window_ids(list(range(q4_msr.n_nodes)), a + 1,
                               q4_msr.lam[l])
        inverses.clear()
        hmsr.ExtractContext(q4_msr, l, ids)
        assert len(inverses) == 1 and eliminations == [], l


def _kernel_calls(extract, rows):
    """(``Field.product`` calls, ``Field.comb_bytes`` calls) of one
    extraction."""
    with pytest.MonkeyPatch.context() as mp:
        products = _counting(mp, field.Field, "product")
        combs = _counting(mp, field.Field, "comb_bytes")
        extract(rows)
    return len(products), len(combs)


def test_window_extractors_make_one_kernel_call_per_product(q4_msr, q3_mbr,
                                                            q4_mbr):
    """The extractors multiply bytes rows that hold every block, so one
    block or all A/alpha_0 blocks of layer 0 cost the same kernel calls: one
    ``Field.product`` per matrix product and one ``Field.comb_bytes`` per
    other combination.  ``extract_st``: three products (R Phi^t and the two
    Omega^-1 products) and, in ``_pairs``, one D per distinct
    lambda_i - lambda_j (i < j) of the window and one C per lambda_i of its
    first alpha_0 responders, then alpha_0 diagonals.  ``_extract_m``: the
    T and S products and one strip per responder, k_0; with k_0 = alpha_0
    (q=4) there is no T and each strip is its row, so the S product
    alone."""
    rng = random.Random(9)
    F, a = q4_msr.field, q4_msr.alpha[0]
    for p, window in ((q4_msr, hmsr._st_window), (q3_mbr, hmbr._m_window),
                      (q4_mbr, hmbr._m_window)):
        n = p.n_nodes
        ids = hmsr._window_ids(list(range(n)), p.k[0],
                               p.lam[0] if p.lam else range(n))
        if p.lam:
            lam = [p.lam[0][g] for g in ids]
            differences = {F.sub(x, y) for i, x in enumerate(lam)
                           for y in lam[i + 1:]}
            calls = (3, len(differences) + a + a)
        elif p.alpha[0] > p.k[0]:
            calls = (2, p.k[0])
        else:
            calls = (1, 0)
        extract, _ = window(p, 0, ids)
        for width in (p.alpha[0], p.A):
            rows = [bytes(rng.randrange(p.field.order) for _ in range(width))
                    for _ in ids]
            assert _kernel_calls(extract, rows) == calls, (p.mode, p.q, width)


@pytest.mark.parametrize("prof_name", ["q5_msr", "q5_mbr"])
def test_honest_operations_never_run_the_list_kernel(prof_name, request,
                                                     monkeypatch):
    """Encoding, plain and detect repair and plain and detect
    reconstruction keep the rows bytes from the layer matrices to the node
    states and back to the message: at q=5 every product, the basis
    transforms included, runs on bytes rows wide enough for the lanes, so
    neither ``Field.pack`` nor ``Field.comb`` runs."""
    profile = request.getfixturevalue(prof_name)
    message = random_message(profile, 8)
    for g in range(profile.n_nodes):          # B_g^-1, built at first use
        profile.points.basis_inv(g)
    lists = _counting(monkeypatch, field.Field, "comb")
    packs = _counting(monkeypatch, field.Field, "pack")
    cluster = sim.cluster_init(profile, message)
    assert (lists, packs) == ([], [])
    for mode in ("plain", "detect"):
        report, _ = sim.reconstruct(cluster, mode)
        assert report.ok and report.message == message, mode
        sim.fail_node(cluster, 3)
        report, _ = sim.repair(cluster, 3, mode)
        assert report.ok and report.y == cluster.truth_nodes[3], mode
        assert (lists, packs) == ([], []), mode


@pytest.mark.parametrize("prof_name", ["q4_msr", "q5_msr", "q5_mbr"])
def test_a_helper_response_makes_two_kernel_calls_per_layer(prof_name,
                                                             request,
                                                             monkeypatch):
    """At level L: L + 1 basis-transform calls (rows A wide) and L + 1
    help-symbol calls (one symbol per block), all on bytes rows, so the
    list kernel never runs; every key is the profile's own (l, t) tuple."""
    profile = request.getfixturevalue(prof_name)
    nodes = encode_profile(profile, [1] * profile.B)
    hmsr.tilde_rows(profile, nodes[2], 0)     # B_2^-1, built at first use
    calls = _counting(monkeypatch, field.Field, "comb_bytes")
    lists = _counting(monkeypatch, field.Field, "comb")
    for level in range(profile.q):
        calls.clear()
        batch = hmsr.helper_response(nodes[2], profile, level, 0)
        widths = [args[3] for args in calls]
        assert widths == [profile.A] * (level + 1) + [
            profile.blocks(l) for l in range(level + 1)], level
        assert not lists
        keys = profile.help_keys
        assert all(key is keys[key[0]][key[1]] for key in batch.symbols)


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr", "q5_msr"])
def test_an_msr_repair_eliminates_nothing(prof_name, request, monkeypatch):
    """Closed-form windows: an honest MSR repair makes no elimination
    (``linalg._eliminate`` or ``det_nonzero``) in plain, detect or
    recover."""
    profile = request.getfixturevalue(prof_name)
    nodes = encode_profile(profile, random_message(profile, 5))
    modes = {mode: repair_batches(profile, nodes, 2, mode)
             for mode in ("plain", "detect", "recover")}
    eliminations = _counting(monkeypatch, linalg, "_eliminate")
    determinants = _counting(monkeypatch, hmsr, "det_nonzero")
    for mode, batches in modes.items():
        report = getattr(hmsr, f"regenerate_{mode}")(2, batches, profile)
        assert report.ok and report.y == nodes[2].y, mode
        assert eliminations == [] and determinants == [], mode


@pytest.mark.parametrize("prof_name", ["q3_msr", "q4_msr", "q5_msr"])
def test_an_msr_detect_repair_computes_each_window_delta_once(prof_name,
                                                              request,
                                                              monkeypatch):
    """A window's barycentric products serve both its map and the extra
    helper's Lagrange weights: one ``_deltas`` per layer."""
    profile = request.getfixturevalue(prof_name)
    nodes = encode_profile(profile, random_message(profile, 5))
    batches = repair_batches(profile, nodes, 2, "detect")
    deltas = _counting(monkeypatch, hmsr, "_deltas")
    report = hmsr.regenerate_detect(2, batches, profile)
    assert report.ok and report.y == nodes[2].y
    assert len(deltas) == profile.q


@pytest.mark.parametrize("prof_name", ["q5_msr", "q5_mbr"])
def test_an_honest_reconstruction_eliminates_nothing(prof_name, request,
                                                     monkeypatch):
    """Closed-form windows: an honest plain or detect reconstruction makes
    no ``linalg._eliminate`` call inside the engine call."""
    profile = request.getfixturevalue(prof_name)
    message = random_message(profile, 8)
    nodes = encode_profile(profile, message)
    modes = {mode: recon_batches(profile, nodes, mode)
             for mode in ("plain", "detect")}
    msr = profile.mode == "msr"
    eliminations = _counting(monkeypatch, linalg, "_eliminate")
    for mode, batches in modes.items():
        engine = getattr(hmsr if msr else hmbr,
                         f"reconstruct_{'' if msr else 'mbr_'}{mode}")
        report = engine(batches, profile)
        assert report.ok and report.message == message, mode
        assert eliminations == [], mode


@pytest.mark.parametrize("prof_name", ["q4_msr", "q4_mbr"])
def test_a_block_solver_eliminates_only_in_the_decoder(prof_name, request,
                                                       monkeypatch):
    """``rec_st`` and ``rec_m`` on a block with two liars: the column words
    go to Welch-Berlekamp, whose interpolation is a null space, but outside
    ``decode`` neither solver makes a ``linalg._eliminate`` call
    (``rec_st`` inverts its chosen columns in closed form) and both name
    the liars and return the block."""
    profile = request.getfixturevalue(prof_name)
    F, l = profile.field, 0
    msr = profile.mode == "msr"
    module, solver = (hmsr, "rec_st") if msr else (hmbr, "rec_m")
    message = random_message(profile, 9)
    truth = [hmsr.tilde_rows(profile, node, 0)[l][:profile.alpha[l]]
             for node in encode_profile(profile, message)]
    blocks = [bytearray(r) for r in truth]
    for g in (1, 6):
        blocks[g][0] = F.add(blocks[g][0], 1)
    outside, inside = [], []
    real_decode = module.decode

    def counting_decode(*args, **kwargs):
        inside.append(None)
        try:
            return real_decode(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(module, "decode", counting_decode)
    real_eliminate = linalg._eliminate

    def eliminate(*args, **kwargs):
        if not inside:
            outside.append(args)
        return real_eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    S, T, corrupt = getattr(module, solver)(blocks, frozenset(), l, profile)
    assert corrupt == {1, 6} and outside == []
    stack = hmsr._st_stack(S, T) if msr else hmbr._join(S, T)
    row = profile.nu_row if msr else profile.mu_row
    assert [linalg.vec_mat(F, row(g, l), stack) for g in range(
        profile.n_nodes)] == [list(r) for r in truth]


@pytest.mark.parametrize("prof_name", ["q3_mbr", "q4_mbr", "q5_mbr"])
def test_an_mbr_repair_inverts_one_window_per_layer(prof_name, request,
                                                   monkeypatch):
    """An honest MBR repair makes one ``solve_square`` per layer, d_l x d_l,
    and in detect one ``det_nonzero`` per layer."""
    profile = request.getfixturevalue(prof_name)
    nodes = encode_profile(profile, random_message(profile, 6))
    solves = _counting(monkeypatch, hmsr, "solve_square")
    determinants = _counting(monkeypatch, hmsr, "det_nonzero")
    for mode in ("plain", "detect"):
        solves.clear()
        determinants.clear()
        batches = repair_batches(profile, nodes, 2, mode)
        report = getattr(hmbr, f"regenerate_mbr_{mode}")(2, batches, profile)
        assert report.ok and report.y == nodes[2].y, mode
        assert [len(args[1]) for args in solves] == list(profile.d), mode
        assert len(determinants) == (profile.q if mode == "detect" else 0)


def test_a_repair_cycle_reaches_solve_square_and_det_nonzero(q4_msr, q4_mbr,
                                                            monkeypatch):
    """``bench/run.py`` requires every traced pass to reach
    ``linalg.solve_square`` and ``linalg.det_nonzero``.  MSR repair reaches
    neither, so one plain and one detect repair on q=4 MSR and MBR clusters
    must, through MBR."""
    solves = _counting(monkeypatch, hmsr, "solve_square")
    determinants = _counting(monkeypatch, hmsr, "det_nonzero")
    for profile in (q4_msr, q4_mbr):
        cluster = sim.cluster_init(profile, random_message(profile, 7))
        for mode in ("plain", "detect"):
            sim.fail_node(cluster, 5)
            report, _ = sim.repair(cluster, 5, mode)
            assert report.ok, (profile.mode, mode)
    assert solves and determinants


def test_a_basis_transform_reaches_mat_inv(monkeypatch):
    """``bench/run.py`` requires every traced pass to reach
    ``linalg.mat_inv``.  The engines invert their windows in closed form,
    so the route is the basis transform: a new profile and one
    ``tilde_rows`` build B_0^-1 by ``mat_inv``."""
    inverses = _counting(monkeypatch, curve, "mat_inv")
    profile = profile_new("msr", 4, 37, (6, 5, 4, 3), seed=1)
    nodes = encode_profile(profile, random_message(profile, 7))
    assert inverses == []
    hmsr.tilde_rows(profile, nodes[5], 0)
    assert len(inverses) == 1
