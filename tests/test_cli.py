import argparse
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from hrgc import cli, sim
from hrgc.errors import HrgcError


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """profile + encoded 165-byte file, q=4 MSR."""
    root = tmp_path_factory.mktemp("cli")
    profile = str(root / "profile.txt")
    assert run(["profile", "--mode", "msr", "--q", "4", "--m", "37",
                "--alphas", "6,5,4,3", "--seed", "1", "--out", profile]) == 0
    payload = bytes(random.Random(5).randrange(256) for _ in range(165))
    src = root / "input.bin"
    src.write_bytes(payload)
    cluster = str(root / "cluster")
    assert run(["encode", "--profile", profile, "--input", str(src),
                "--outdir", cluster]) == 0
    return {"root": root, "profile": profile, "cluster": cluster,
            "payload": payload}


def test_end_to_end_round_trip(workspace):
    root = workspace["root"]
    cluster = workspace["cluster"]
    assert run(["fail", "--cluster", cluster, "--node", "7"]) == 0
    assert run(["repair", "--cluster", cluster, "--node", "7",
                "--mode", "plain"]) == 0
    out = str(root / "out.bin")
    assert run(["reconstruct", "--cluster", cluster, "--mode", "plain",
                "--out", out]) == 0
    assert open(out, "rb").read() == workspace["payload"]


def test_node_files_round_trip_and_a_repair_rewrites_one_byte_for_byte(
        workspace, tmp_path):
    """A node file loads as bytearray rows that encode back to the file's
    bytes, and a command-line repair of a failed node whose file is gone
    writes the same file again."""
    cluster = tmp_path / "cluster"
    shutil.copytree(workspace["cluster"], cluster)
    profile = sim.load_cluster(str(cluster)).profile
    header = sim._node_header(profile)
    files = {g: (cluster / sim.node_filename(g)).read_bytes()
             for g in range(profile.n_nodes)}
    for data in files.values():
        state = sim.decode_node_bytes(data, profile, header)
        assert [type(row) for row in state.y] == [bytearray] * profile.q
        assert sim.encode_node_bytes(state, header) == data
    path = cluster / sim.node_filename(6)
    assert run(["fail", "--cluster", str(cluster), "--node", "6"]) == 0
    path.unlink()
    assert run(["repair", "--cluster", str(cluster), "--node", "6"]) == 0
    assert path.read_bytes() == files[6]


def test_verify_consistent_cluster(workspace):
    assert run(["verify", "--cluster", workspace["cluster"]]) == 0


def test_repair_with_adversary_escalates(workspace):
    cluster = workspace["cluster"]
    jsonp = str(workspace["root"] / "repair.json")
    assert run(["fail", "--cluster", cluster, "--node", "9"]) == 0
    code = run(["repair", "--cluster", cluster, "--node", "9",
                "--mode", "detect",
                "--adversary", "nodes=2,5;strategy=random;seed=3",
                "--json", jsonp])
    assert code == 0
    report = json.load(open(jsonp))
    assert report["escalated"] is True
    assert report["corrupted"] == [2, 5]
    assert report["ok"] is True
    # cluster is intact again for subsequent tests
    assert run(["verify", "--cluster", cluster]) == 0


def test_report_lists_the_download_per_layer(workspace, tmp_path):
    # q=4 MSR (d = 12, 10, 8, 6; A = 60): a plain repair downloads
    # d_l * A / alpha_l = 120 symbols in every layer
    cluster = str(tmp_path / "cluster")
    shutil.copytree(workspace["cluster"], cluster)
    jsonp = str(tmp_path / "repair.json")
    assert run(["fail", "--cluster", cluster, "--node", "3"]) == 0
    assert run(["repair", "--cluster", cluster, "--node", "3",
                "--mode", "plain", "--json", jsonp]) == 0
    report = json.load(open(jsonp))
    assert report["downloaded_per_layer"] == [120, 120, 120, 120]
    assert report["downloaded_symbols"] == 480


def test_reconstruct_with_adversary(workspace):
    root = workspace["root"]
    out = str(root / "out2.bin")
    jsonp = str(root / "rec.json")
    # node 6 is among the staged responders (ascending ids)
    code = run(["reconstruct", "--cluster", workspace["cluster"],
                "--mode", "detect",
                "--adversary", "nodes=6;strategy=random;seed=9",
                "--out", out, "--json", jsonp])
    assert code == 0
    report = json.load(open(jsonp))
    assert report["escalated"] is True and report["corrupted"] == [6]
    assert open(out, "rb").read() == workspace["payload"]


def test_alarm_without_escalation_exit_code(workspace):
    code = run(["reconstruct", "--cluster", workspace["cluster"],
                "--mode", "detect", "--policy", "report",
                "--adversary", "nodes=4;strategy=random;seed=1",
                "--out", str(workspace["root"] / "never.bin")])
    assert code == cli.EXIT_ALARM


def test_decode_failure_exit_code(workspace, tmp_path):
    # an adversary far beyond every budget forces the failure exit path
    code = run(["reconstruct", "--cluster", workspace["cluster"],
                "--mode", "recover",
                "--adversary", "nodes=0,1,2,3,4,5,6,7,8,9,10,11;seed=2",
                "--out", str(tmp_path / "never.bin")])
    assert code == cli.EXIT_DECODE_FAILURE


@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_two_failure_repair_is_exact(workspace, tmp_path, capsys, mode):
    # with nodes 1 and 5 failed, node 5's staged helpers skip node 1; any
    # d_l nu rows are regular, so the window solves and node 5 comes back
    cluster = str(tmp_path / "cluster")
    shutil.copytree(workspace["cluster"], cluster)
    node = os.path.join(cluster, sim.node_filename(5))
    original = open(node, "rb").read()
    for g in ("1", "5"):
        assert run(["fail", "--cluster", cluster, "--node", g]) == 0
    os.remove(node)
    capsys.readouterr()
    assert run(["repair", "--cluster", cluster, "--node", "5",
                "--mode", mode]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert open(node, "rb").read() == original


def test_singular_repair_window_recover_repair_is_exact(workspace, tmp_path):
    # the same two failures in recover mode: node 1 is an erasure and
    # node 5 comes back
    cluster = str(tmp_path / "cluster")
    shutil.copytree(workspace["cluster"], cluster)
    node = os.path.join(cluster, sim.node_filename(5))
    original = open(node, "rb").read()
    for g in ("1", "5"):
        assert run(["fail", "--cluster", cluster, "--node", g]) == 0
    os.remove(node)
    assert run(["repair", "--cluster", cluster, "--node", "5",
                "--mode", "recover"]) == cli.EXIT_OK
    assert open(node, "rb").read() == original


@pytest.mark.parametrize("mode", ["detect", "recover"])
def test_repair_with_a_second_failed_node(workspace, tmp_path, capsys, mode):
    # q=4 MSR, 600 bytes, nodes 3 and 9 failed and node 0 lying: the recover
    # round (escalated in detect) erases node 3, names node 0 and writes
    # node 9 exactly
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(random.Random(6).randrange(256) for _ in range(600)))
    cluster = str(tmp_path / "cluster")
    assert run(["encode", "--profile", workspace["profile"], "--input",
                str(src), "--outdir", cluster]) == 0
    node = os.path.join(cluster, sim.node_filename(9))
    original = open(node, "rb").read()
    for g in ("3", "9"):
        assert run(["fail", "--cluster", cluster, "--node", g]) == 0
    os.remove(node)
    capsys.readouterr()
    assert run(["repair", "--cluster", cluster, "--node", "9", "--mode", mode,
                "--adversary", "nodes=0;seed=2"]) == cli.EXIT_OK
    assert "corrupted: [0]\n" in capsys.readouterr().out
    assert open(node, "rb").read() == original


def test_capability_csv(tmp_path):
    out = str(tmp_path / "cap.csv")
    assert run(["capability", "--q-range", "4:16:2", "--out", out]) == 0
    lines = [ln for ln in open(out).read().split("\n") if ln]
    assert lines[1] == "q,alphas,ds,tau_hmsr,tau_rsmsr"
    assert lines[2].startswith('4,')
    assert len(lines) == 2 + 7


def test_bad_input_exit_codes(tmp_path):
    # invalid alpha
    code = run(["profile", "--mode", "msr", "--q", "4", "--m", "37",
                "--alphas", "6,6,4,3", "--out", str(tmp_path / "p.txt")])
    assert code == cli.EXIT_BAD_INPUT
    # io error
    code = run(["encode", "--profile", str(tmp_path / "missing.txt"),
                "--input", str(tmp_path / "nope"),
                "--outdir", str(tmp_path / "c")])
    assert code == cli.EXIT_IO


def test_packing_round_trip_every_length():
    # q=4 packs arbitrary bytes (two nibbles each); q=3 packs one byte per
    # symbol, so both payload bytes and the length-prefix bytes must stay
    # below q^2 -- hence the tiny lengths
    for q, B, lengths in ((4, 1320, (0, 1, 7, 164, 165)), (3, 54, (0, 1, 7, 8))):
        for n in lengths:
            if q == 4:
                data = bytes((7 * i + 1) % 256 for i in range(n))
            else:
                data = bytes((i * 3 + 1) % 9 for i in range(n))
            message = cli.pack_file(data, q, B)
            assert len(message) == B
            assert cli.unpack_file(message, q) == data


def test_packing_rejects_large_bytes_for_small_q():
    with pytest.raises(HrgcError):
        cli.bytes_to_symbols(bytes([200]), 3)
    # q=16 admits every byte value
    assert cli.bytes_to_symbols(bytes([255, 0]), 16) == [255, 0]


@pytest.fixture(scope="module")
def q3_profile(tmp_path_factory):
    path = tmp_path_factory.mktemp("q3") / "profile.txt"
    assert run(["profile", "--mode", "msr", "--q", "3", "--m", "8",
                "--alphas", "3,2,1", "--seed", "2", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("data, message", [
    # the byte's offset is into the input, not into the length-prefixed frame
    (bytes([1, 2, 0xC8]), "byte 200 at offset 2 not below q^2=9;"),
    # 10 = 0x0a is no byte of the input: it is the input's length
    (bytes([1] * 10), "input length 10 not packable: each byte of its 8-byte "
                      "little-endian length prefix must be below q^2=9;"),
], ids=["input-byte", "length-prefix"])
def test_q3_packing_errors_name_what_cannot_be_packed(q3_profile, tmp_path,
                                                      capsys, data, message):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    assert run(["encode", "--profile", str(q3_profile), "--input", str(src),
                "--outdir", str(tmp_path / "c")]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error (HrgcError): {message}"), err
    assert err.endswith("direct byte packing needs q=4 or q=16\n"), err


# the largest input one q=4 cluster holds: B symbols at two per byte, less
# the 8-byte length prefix (MSR B = 1320, MBR B = 660)
@pytest.mark.parametrize("mode, flags, most", [
    ("msr", ["--seed", "1"], 652),
    ("mbr", ["--ks", "6,5,4,3", "--seed", "4"], 322),
], ids=["msr", "mbr"])
def test_one_stripe_boundary_through_the_command_line(tmp_path, capsys, mode,
                                                      flags, most):
    profile = str(tmp_path / "profile.txt")
    assert run(["profile", "--mode", mode, "--q", "4", "--m", "37",
                "--alphas", "6,5,4,3", *flags, "--out", profile]) == 0
    data = bytes(random.Random(most).randrange(256) for _ in range(most + 1))
    fits, over = tmp_path / "fits.bin", tmp_path / "over.bin"
    fits.write_bytes(data[:most])
    over.write_bytes(data)
    cluster, out = str(tmp_path / "c"), tmp_path / "out.bin"
    assert run(["encode", "--profile", profile, "--input", str(fits),
                "--outdir", cluster]) == cli.EXIT_OK
    assert run(["reconstruct", "--cluster", cluster, "--out", str(out)]) \
        == cli.EXIT_OK
    assert out.read_bytes() == data[:most]
    capsys.readouterr()
    assert run(["encode", "--profile", profile, "--input", str(over),
                "--outdir", str(tmp_path / "c2")]) == cli.EXIT_BAD_INPUT
    B = 1320 if mode == "msr" else 660
    assert capsys.readouterr().err == (
        f"error (HrgcError): input needs 2 chunks; one cluster holds one "
        f"B={B} chunk (split the file upstream)\n")
    assert not os.path.exists(tmp_path / "c2")


def test_bad_adversary_and_node_exit_codes(workspace, capsys):
    cluster = workspace["cluster"]
    out = str(workspace["root"] / "never.bin")
    for spec in ("nodes=x", "nodes=1;strategy=bogus", "nodes=1,40"):
        assert run(["reconstruct", "--cluster", cluster, "--mode", "detect",
                    "--adversary", spec, "--out", out]) == cli.EXIT_BAD_INPUT
    for node in ("99", "-1"):
        assert run(["fail", "--cluster", cluster, "--node", node]) \
            == cli.EXIT_BAD_INPUT
    assert "InvalidParams" in capsys.readouterr().err
    assert run(["verify", "--cluster", cluster]) == cli.EXIT_OK


@pytest.fixture(scope="module")
def mbr_workspace(tmp_path_factory):
    """profile + encoded 300-byte file, q=4 MBR."""
    root = tmp_path_factory.mktemp("cli_mbr")
    profile = str(root / "profile.txt")
    assert run(["profile", "--mode", "mbr", "--q", "4", "--m", "37",
                "--alphas", "6,5,4,3", "--ks", "6,5,4,3", "--seed", "4",
                "--out", profile]) == 0
    src = root / "input.bin"
    src.write_bytes(bytes(random.Random(8).randrange(256) for _ in range(300)))
    cluster = str(root / "cluster")
    assert run(["encode", "--profile", profile, "--input", str(src),
                "--outdir", cluster]) == 0
    return {"root": root, "profile": profile, "cluster": cluster}


def test_lying_responder_in_plain_reconstruct_is_an_alarm(mbr_workspace,
                                                          capsys):
    # the asymmetric block comes from the cluster, not from the operator
    code = run(["reconstruct", "--cluster", mbr_workspace["cluster"],
                "--mode", "plain", "--adversary", "nodes=1;seed=3",
                "--out", str(mbr_workspace["root"] / "never.bin")])
    assert code == cli.EXIT_ALARM
    assert "AsymmetryDetected" in capsys.readouterr().err


def _hrgc(argv, optimize=False):
    """Run the command line in a fresh interpreter."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "hrgc.cli", *argv],
                          env=env, capture_output=True, text=True)


def _encode_with_profile(root, text, optimize=False):
    """Run ``hrgc encode`` in a fresh interpreter against a profile text."""
    profile = root / "edited.txt"
    profile.write_text(text)
    src = root / "tiny.bin"
    src.write_bytes(b"abc")
    return _hrgc(["encode", "--profile", str(profile), "--input", str(src),
                  "--outdir", str(root / "edited_cluster")], optimize)


def test_profile_without_seed_exits_bad_input(mbr_workspace, tmp_path, capsys):
    text = open(mbr_workspace["profile"]).read()
    edited = "".join(line + "\n" for line in text.splitlines()
                     if not line.startswith("seed="))
    (tmp_path / "noseed.txt").write_text(edited)
    code = run(["encode", "--profile", str(tmp_path / "noseed.txt"),
                "--input", str(tmp_path / "noseed.txt"),
                "--outdir", str(tmp_path / "c")])
    assert code == cli.EXIT_BAD_INPUT
    assert "InvalidParams" in capsys.readouterr().err


@pytest.mark.parametrize("optimize", [False, True])
def test_tampered_profile_exits_bad_input(mbr_workspace, tmp_path, optimize):
    # the derived-field checks must hold under python -O as well
    text = open(mbr_workspace["profile"]).read().replace("A=60\n", "A=30\n")
    assert "A=30\n" in text
    proc = _encode_with_profile(tmp_path, text, optimize)
    assert proc.returncode == cli.EXIT_BAD_INPUT, proc.stderr
    assert "InvalidParams" in proc.stderr and "Traceback" not in proc.stderr


def test_truncated_node_file_exits_bad_input(mbr_workspace, tmp_path, capsys):
    cluster = tmp_path / "cluster"
    shutil.copytree(mbr_workspace["cluster"], cluster)
    node = cluster / "node_003.bin"
    node.write_bytes(node.read_bytes()[:12])
    assert run(["verify", "--cluster", str(cluster)]) == cli.EXIT_BAD_INPUT
    assert "truncated" in capsys.readouterr().err


def test_offset_outside_the_field_exits_bad_input(workspace, capsys):
    code = run(["reconstruct", "--cluster", workspace["cluster"],
                "--mode", "detect",
                "--adversary", "nodes=1;strategy=offset;offset=16",
                "--out", str(workspace["root"] / "never.bin")])
    assert code == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == ("error (InvalidParams): adversary offset 16 outside "
                   "[1, 15]\n")


def test_knowledge_is_an_unknown_adversary_key(workspace, capsys):
    code = run(["reconstruct", "--cluster", workspace["cluster"],
                "--mode", "detect",
                "--adversary", "nodes=1;knowledge=omniscient",
                "--out", str(workspace["root"] / "never.bin")])
    assert code == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == ("error (InvalidParams): unknown adversary spec keys "
                   "['knowledge']\n")


def test_node_file_with_a_bad_mode_byte_exits_bad_input(mbr_workspace,
                                                        tmp_path, capsys):
    cluster = tmp_path / "cluster"
    shutil.copytree(mbr_workspace["cluster"], cluster)
    node = cluster / "node_003.bin"
    data = bytearray(node.read_bytes())
    data[5] = 7
    node.write_bytes(bytes(data))
    assert run(["reconstruct", "--cluster", str(cluster), "--mode", "plain",
                "--out", str(tmp_path / "never.bin")]) == cli.EXIT_BAD_INPUT
    assert run(["verify", "--cluster", str(cluster)]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err.count("mode does not match") == 2


def _flip_payload_byte(node, offset=100):
    # the header of a q=4 node file is 30 bytes; XOR 1 keeps a GF(16) symbol
    data = bytearray(node.read_bytes())
    data[offset] ^= 1
    node.write_bytes(bytes(data))


def _verify(cluster, tmp_path):
    jsonp = str(tmp_path / "verify.json")
    code = run(["verify", "--cluster", str(cluster), "--json", jsonp])
    return code, json.load(open(jsonp))


@pytest.mark.parametrize("g", [0, 2, 5])
def test_verify_names_the_flipped_msr_node(workspace, tmp_path, g):
    cluster = tmp_path / "cluster"
    shutil.copytree(workspace["cluster"], cluster)
    _flip_payload_byte(cluster / sim.node_filename(g))
    code, report = _verify(cluster, tmp_path)
    assert code == cli.EXIT_DECODE_FAILURE
    assert report == {"consistent": False, "suspect_nodes": [g]}
    # regenerating the named node clears the audit
    assert run(["fail", "--cluster", str(cluster), "--node", str(g)]) == 0
    assert run(["repair", "--cluster", str(cluster), "--node", str(g)]) == 0
    code, report = _verify(cluster, tmp_path)
    assert code == cli.EXIT_OK
    assert report == {"consistent": True, "suspect_nodes": []}


def test_verify_names_two_flipped_mbr_nodes_beside_a_failed_one(mbr_workspace,
                                                               tmp_path):
    cluster = tmp_path / "cluster"
    shutil.copytree(mbr_workspace["cluster"], cluster)
    for g in (4, 11):
        _flip_payload_byte(cluster / sim.node_filename(g))
    assert run(["fail", "--cluster", str(cluster), "--node", "9"]) == 0
    code, report = _verify(cluster, tmp_path)
    assert code == cli.EXIT_DECODE_FAILURE
    assert report["suspect_nodes"] == [4, 11]


def test_verify_corruption_beyond_the_budget_is_an_error(workspace, tmp_path):
    cluster = tmp_path / "cluster"
    shutil.copytree(workspace["cluster"], cluster)
    for g in range(10):
        _flip_payload_byte(cluster / sim.node_filename(g), offset=60 + 7 * g)
    code, report = _verify(cluster, tmp_path)
    assert code == cli.EXIT_DECODE_FAILURE
    assert report["consistent"] is False and report["error"]


def _edit_manifest(old, new):
    def damage(cluster):
        path = cluster / "manifest.txt"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
    return damage


def _symbol_outside_the_field(cluster):
    node = cluster / sim.node_filename(3)
    data = bytearray(node.read_bytes())
    data[-1] = 0xFF
    node.write_bytes(bytes(data))


@pytest.mark.parametrize("argv, damage", [
    (["repair", "--cluster", "CLUSTER", "--node", "2", "--mode", "bogus"], None),
    (["fail", "--cluster", "CLUSTER", "--node", "x"], None),
    (["verify"], None),
    (["profile", "--mode", "msr", "--q", "4", "--m", "37",
      "--alphas", "6,x,4,3", "--out", "OUT"], None),
    (["profile", "--mode", "mbr", "--q", "4", "--m", "37",
      "--alphas", "6,5,4,3", "--ks", "6,5,,3", "--out", "OUT"], None),
    (["capability", "--q-range", "4:16", "--out", "OUT"], None),
    (["capability", "--q-range", "4:16:0", "--out", "OUT"], None),
    (["verify", "--cluster", "CLUSTER"],
     _edit_manifest("node_003=node_003.bin,live\n", "")),
    (["verify", "--cluster", "CLUSTER"],
     _edit_manifest("node_003.bin,live", "node_003.bin,gone")),
    (["verify", "--cluster", "CLUSTER"], _symbol_outside_the_field),
], ids=["bad-choice", "bad-int", "missing-flag", "alphas", "ks",
        "q-range-short", "q-range-step-0", "manifest-line", "manifest-status",
        "node-symbol"])
def test_bad_input_exits_4_without_traceback(mbr_workspace, tmp_path, argv,
                                              damage):
    cluster = tmp_path / "cluster"
    shutil.copytree(mbr_workspace["cluster"], cluster)
    if damage:
        damage(cluster)
    names = {"CLUSTER": str(cluster), "OUT": str(tmp_path / "out")}
    proc = _hrgc([names.get(a, a) for a in argv])
    assert proc.returncode == cli.EXIT_BAD_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr and "error" in proc.stderr


def test_help_exits_ok():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--help"])
    assert exc.value.code == 0


# a representative argv per subcommand: the first of each leaves every
# default in place, the second sets every flag
PARSE_CASES = [
    ["profile", "--mode", "msr", "--q", "4", "--m", "37", "--alphas",
     "6,5,4,3", "--out", "p.txt"],
    ["profile", "--mode", "mbr", "--q", "4", "--m", "37", "--alphas",
     "6,5,4,3", "--ks", "6,5,4,3", "--seed", "4", "--out", "p.txt",
     "--json", "r.json"],
    ["encode", "--profile", "p.txt", "--input", "in.bin", "--outdir", "c"],
    ["encode", "--profile", "p.txt", "--input", "in.bin", "--outdir", "c",
     "--json", "r.json"],
    ["fail", "--cluster", "c", "--node", "3"],
    ["fail", "--cluster", "c", "--node", "3", "--json", "r.json"],
    ["repair", "--cluster", "c", "--node", "3"],
    ["repair", "--cluster", "c", "--node", "3", "--mode", "detect",
     "--adversary", "nodes=1;seed=2", "--policy", "report", "--json", "r.json"],
    ["reconstruct", "--cluster", "c", "--out", "o.bin"],
    ["reconstruct", "--cluster", "c", "--mode", "recover", "--adversary",
     "nodes=1;seed=2", "--policy", "report", "--out", "o.bin",
     "--json", "r.json"],
    ["capability", "--out", "cap.csv"],
    ["capability", "--q-range", "4:8:2", "--out", "cap.csv", "--json", "r.json"],
    ["verify", "--cluster", "c"],
    ["verify", "--cluster", "c", "--json", "r.json"],
]


def test_parse_cases_cover_every_command():
    assert {argv[0] for argv in PARSE_CASES} == {c[0] for c in cli.COMMANDS}
    assert len(cli.COMMANDS) == 7


@pytest.mark.parametrize("argv", PARSE_CASES,
                         ids=[f"{a[0]}-{n % 2}" for n, a in enumerate(PARSE_CASES)])
def test_one_subcommand_parser_parses_as_the_full_one(argv):
    one = cli.build_parser(argv)
    sub = next(a for a in one._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [argv[0]]
    full = cli.build_parser([])
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))


def test_one_subcommand_usage_names_every_command(workspace, capsys):
    # an extra argument is the top-level parser's error, so its usage line
    # shows; it names all seven commands as the full parser's does
    argv = ["reconstruct", "--cluster", workspace["cluster"], "--out",
            str(workspace["root"] / "never.bin"), "extra"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == cli.EXIT_BAD_INPUT
    err = " ".join(capsys.readouterr().err.split())
    assert err.startswith("usage: hrgc [-h] {profile,encode,fail,repair,"
                          "reconstruct,capability,verify} ...")
    assert "unrecognized arguments: extra" in err


def test_top_level_help_lists_every_command():
    proc = _hrgc(["--help"])
    assert proc.returncode == 0, proc.stderr
    listed = proc.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == [c[0] for c in cli.COMMANDS]
    for name, help_, *_ in cli.COMMANDS:
        assert help_ in proc.stdout


@pytest.mark.parametrize("argv", [[], ["bogus"], ["reconstruct", "--cluster",
                                                   "c"]],
                         ids=["empty", "unknown-command", "missing-flag"])
def test_top_level_bad_input_exits_4_without_traceback(argv):
    proc = _hrgc(argv)
    assert proc.returncode == cli.EXIT_BAD_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr and "error" in proc.stderr
