"""Operator command line: profile / encode / fail / repair / reconstruct /
capability / verify.

Exit codes: 0 ok, 2 unresolved alarm, 3 decode failure, 4 bad input, 5 io
error.  Bad input -- a usage error, a malformed number list or q range, a
bad profile, manifest or node file -- is a typed HrgcError and exits 4 with
a one-line message, never a traceback.  A singular responder window
(``SingularSystem``) is well-formed input that cannot be solved: exit 3.
Every run is reproducible from its flags and seeds.

``COMMANDS`` states each subcommand once: its name, help, handler and
arguments (every command also takes ``--json``).  ``build_parser`` adds only
the subcommand that ``argv[0]`` names, so a call pays for one subparser; with
``--help``, an empty argv or an unknown command it adds all seven.  Nothing
is kept between calls: each call builds its own parser.

``verify`` is a recover-mode reconstruct of the stored cluster with no
payload output: it exits 0 when every block decodes with no corrupt node, and
3 when the certified block solvers name corrupt nodes (``suspect_nodes``) or
the corruption is beyond their budget (``error``).

Byte packing: a cluster holds one B-symbol message, the input's 8-byte
little-endian length and then its bytes, zero-padded to B.  GF(16) stores
two symbols per byte (high nibble first); every other q stores one symbol per
byte, which requires every input byte and every byte of the length prefix to
be below q^2.  ``pack_file`` refuses (exit 4) an input that breaks this or
needs more than B symbols: at q=4 MSR, B = 1320 symbols at two symbols per
byte less the 8-byte prefix allows 652 bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import sim
from .errors import (AsymmetryDetected, HrgcError, InvalidParams,
                     SingularSystem)
from .matrices import CODES, profile_from_text, profile_new, profile_to_text

EXIT_OK = 0
EXIT_ALARM = 2
EXIT_DECODE_FAILURE = 3
EXIT_BAD_INPUT = 4
EXIT_IO = 5


# -- byte <-> symbol packing ---------------------------------------------------


def bytes_to_symbols(data: bytes, q: int):
    if q == 4:
        out = []
        for b in data:
            out.append(b >> 4)
            out.append(b & 0x0F)
        return out
    limit = q * q
    for i, b in enumerate(data):
        if b >= limit:
            raise HrgcError(
                f"byte {b} at offset {i} not below q^2={limit}; "
                f"direct byte packing needs q=4 or q=16"
            )
    return list(data)


def symbols_to_bytes(symbols, q: int) -> bytes:
    if q == 4:
        if len(symbols) % 2:
            symbols = list(symbols) + [0]
        return bytes(
            (symbols[i] << 4) | symbols[i + 1] for i in range(0, len(symbols), 2)
        )
    return bytes(symbols)


def pack_file(data: bytes, q: int, B: int):
    """The cluster's one B-symbol message: the length prefix, then ``data``,
    as symbols, zero-padded to B."""
    syms = bytes_to_symbols(data, q)
    prefix = len(data).to_bytes(8, "little")
    if q != 4 and max(prefix) >= q * q:
        raise HrgcError(
            f"input length {len(data)} not packable: each byte of its 8-byte "
            f"little-endian length prefix must be below q^2={q * q}; direct "
            f"byte packing needs q=4 or q=16"
        )
    syms = bytes_to_symbols(prefix, q) + syms
    if len(syms) > B:
        raise HrgcError(
            f"input needs {-(-len(syms) // B)} chunks; one cluster holds one "
            f"B={B} chunk (split the file upstream)"
        )
    return syms + [0] * (B - len(syms))


def unpack_file(message, q: int) -> bytes:
    raw = symbols_to_bytes(message, q)
    if len(raw) < 8:
        raise HrgcError("decoded payload shorter than its length prefix")
    length = int.from_bytes(raw[:8], "little")
    if length > len(raw) - 8:
        raise HrgcError("length prefix exceeds decoded payload")
    return raw[8:8 + length]


# -- helpers ----------------------------------------------------------------------


def _int_list(text, sep, flag):
    try:
        return [int(v) for v in text.split(sep)]
    except ValueError:
        raise InvalidParams(f"{flag} {text!r}: expected integers separated "
                            f"by {sep!r}") from None


def _load_profile(path):
    with open(path) as fh:
        return profile_from_text(fh.read())


def _emit(args, payload: dict):
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for key in sorted(payload):
        print(f"{key}: {payload[key]}")


def _report_exit(report) -> int:
    if report.ok:
        return EXIT_OK
    if report.failure is not None:
        return EXIT_DECODE_FAILURE
    return EXIT_ALARM


def _report_payload(report, log):
    out = {
        "mode": report.mode,
        "ok": report.ok,
        "corrupted": sorted(report.corrupted),
    }
    if report.alarm is not None:
        out["alarm"] = report.alarm
    if report.failure is not None:
        out["failure"] = report.failure
    out["downloaded_symbols"] = log.total_symbols()
    out["downloaded_per_layer"] = log.per_layer()
    if "alarm" in log.meta:
        out["alarm"] = log.meta["alarm"]
        out["escalated"] = bool(log.meta.get("escalated"))
    return out


# -- subcommands -------------------------------------------------------------------


def cmd_profile(args) -> int:
    alpha = _int_list(args.alphas, ",", "--alphas")
    k = _int_list(args.ks, ",", "--ks") if args.ks else None
    profile = profile_new(args.mode, args.q, args.m, alpha, k=k, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(profile_to_text(profile))
    _emit(args, {
        "profile": args.out, "mode": profile.mode, "q": profile.q,
        "m": profile.m, "kappa": list(profile.kappa), "alpha": list(profile.alpha),
        "d": list(profile.d), "k": list(profile.k), "A": profile.A, "B": profile.B,
    })
    return EXIT_OK


def cmd_encode(args) -> int:
    profile = _load_profile(args.profile)
    with open(args.input, "rb") as fh:
        data = fh.read()
    sim.cluster_init(profile, pack_file(data, profile.q, profile.B),
                     retain_truth=False, directory=args.outdir)
    _emit(args, {
        "outdir": args.outdir,
        "nodes": profile.n_nodes,
        "symbols": profile.B,
        "manifest": os.path.join(args.outdir, "manifest.txt"),
    })
    return EXIT_OK


def cmd_fail(args) -> int:
    cluster = sim.load_cluster(args.cluster)
    sim.fail_node(cluster, args.node)
    _emit(args, {"failed": args.node, "live": cluster.live_ids()})
    return EXIT_OK


def cmd_repair(args) -> int:
    cluster = sim.load_cluster(args.cluster)
    adversary = sim.parse_adversary(args.adversary) if args.adversary else None
    report, log = sim.repair(cluster, args.node, args.mode, adversary,
                             policy=args.policy)
    _emit(args, _report_payload(report, log))
    return _report_exit(report)


def cmd_reconstruct(args) -> int:
    cluster = sim.load_cluster(args.cluster)
    adversary = sim.parse_adversary(args.adversary) if args.adversary else None
    report, log = sim.reconstruct(cluster, args.mode, adversary,
                                  policy=args.policy)
    payload = _report_payload(report, log)
    if report.ok:
        data = unpack_file(report.message, cluster.profile.q)
        with open(args.out, "wb") as fh:
            fh.write(data)
        payload["out"] = args.out
        payload["bytes"] = len(data)
    _emit(args, payload)
    return _report_exit(report)


def cmd_capability(args) -> int:
    # imported here: only this command needs capability's fractions, decimal
    # and csv, which would add to every command's start-up
    from .capability import capability_sweep, sweep_csv
    bounds = _int_list(args.q_range, ":", "--q-range")
    if len(bounds) != 3:
        raise InvalidParams(f"--q-range {args.q_range!r}: expected start:stop:step")
    rows = capability_sweep(*bounds)
    text = sweep_csv(rows)
    with open(args.out, "w") as fh:
        fh.write(text)
    _emit(args, {"out": args.out, "rows": len(rows)})
    return EXIT_OK


def cmd_verify(args) -> int:
    """Recover-mode reconstruct of the stored cluster, with no payload
    output: the certified block solvers name every node whose rows disagree
    with the decoded message."""
    cluster = sim.load_cluster(args.cluster)
    report, _ = sim.reconstruct(cluster, "recover")
    payload = {"consistent": report.ok and not report.corrupted,
               "suspect_nodes": sorted(report.corrupted)}
    if not report.ok:
        payload["error"] = report.failure
    _emit(args, payload)
    return EXIT_OK if payload["consistent"] else EXIT_DECODE_FAILURE


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input (exit 4); argparse's own exit 2 is the
    alarm code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


# name, help, handler, and each argument but the shared --json as (flag,
# add_argument keywords)
COMMANDS = (
    ("profile", "create a code profile", cmd_profile, (
        ("--mode", dict(choices=CODES, required=True)),
        ("--q", dict(type=int, required=True)),
        ("--m", dict(type=int, required=True)),
        ("--alphas", dict(required=True, help="comma-separated layer sizes")),
        ("--ks", dict(help="comma-separated k sequence (mbr)")),
        ("--seed", dict(type=int, default=1)),
        ("--out", dict(required=True)))),
    ("encode", "encode a file into a cluster directory", cmd_encode, (
        ("--profile", dict(required=True)),
        ("--input", dict(required=True)),
        ("--outdir", dict(required=True)))),
    ("fail", "mark a node failed", cmd_fail, (
        ("--cluster", dict(required=True)),
        ("--node", dict(type=int, required=True)))),
    ("repair", "regenerate a failed node", cmd_repair, (
        ("--cluster", dict(required=True)),
        ("--node", dict(type=int, required=True)),
        ("--mode", dict(choices=sim.MODES, default="plain")),
        ("--adversary", dict(help="nodes=..;strategy=..;seed=..")),
        ("--policy", dict(choices=sim.POLICIES, default="escalate")))),
    ("reconstruct", "rebuild the original file", cmd_reconstruct, (
        ("--cluster", dict(required=True)),
        ("--mode", dict(choices=sim.MODES, default="plain")),
        ("--adversary", dict()),
        ("--policy", dict(choices=sim.POLICIES, default="escalate")),
        ("--out", dict(required=True)))),
    ("capability", "write the capability sweep CSV", cmd_capability, (
        ("--q-range", dict(default="4:16:2", help="start:stop:step")),
        ("--out", dict(required=True)))),
    ("verify", "audit cluster consistency", cmd_verify, (
        ("--cluster", dict(required=True)),)),
)


def build_parser(argv):
    """The parser for ``argv``: only the subcommand that ``argv[0]`` names,
    or every subcommand when it names none (``--help``, an empty or unknown
    command)."""
    p = _Parser(
        prog="hrgc",
        description="Layered regenerating-code toolkit and cluster simulator",
    )
    chosen = [c for c in COMMANDS if argv and argv[0] == c[0]] or COMMANDS
    # with one subcommand built, the usage line still names all seven
    metavar = None if chosen is COMMANDS else (
        "{" + ",".join(c[0] for c in COMMANDS) + "}")
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_, fn, arguments in chosen:
        sp = sub.add_parser(name, help=help_)
        for flag, options in arguments:
            sp.add_argument(flag, **options)
        sp.add_argument("--json")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AsymmetryDetected as exc:
        # the responders' data was corrupt, not the operator's input
        print(f"alarm ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_ALARM
    except HrgcError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        if isinstance(exc, SingularSystem):     # unsolvable, not bad input
            return EXIT_DECODE_FAILURE
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
