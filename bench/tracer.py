"""Call-boundary instrumentation installed from the benchmark's files.

The program has no trace hooks of its own, so both classes here replace
bindings of hrgc's public names with wrappers and restore them on
``uninstall``.  ``from .linalg import mat_mul`` and the hmsr names that hmbr
re-exports are separate bindings of one function, so a function is rebound in
every hrgc module that holds it.

* :class:`Observer` is installed on every run.  It counts the symbols the
  helper responses carry, per layer, and keeps each repair/reconstruct
  report, exchange log and duration for the gate and the latency
  percentiles.
* :class:`Tracer` is installed only in the traced run.  It records a span per
  wrapped call (name, start, end, parent, operation id, tag) in memory and
  counts field operations and decoder outcomes.
"""

from __future__ import annotations

import collections
import importlib
import json
import time

# (reported name, hrgc module, attribute path).  A dotted attribute path names
# a method; "Class.__init__" is reported under the class name.
SPANNED = (
    ("cli.pack_file", "cli", "pack_file"),
    ("cli.unpack_file", "cli", "unpack_file"),
    ("sim.cluster_init", "sim", "cluster_init"),
    ("sim.repair", "sim", "repair"),
    ("sim.reconstruct", "sim", "reconstruct"),
    ("sim.save_cluster", "sim", "save_cluster"),
    ("sim.save_node", "sim", "save_node"),
    ("sim.load_cluster", "sim", "load_cluster"),
    ("matrices.profile_new", "matrices", "profile_new"),
    ("matrices.select_delta", "matrices", "select_delta"),
    ("matrices.profile_from_text", "matrices", "profile_from_text"),
    ("curve.enumerate_points", "curve", "enumerate_points"),
    ("curve.PointTable.basis_inv", "curve", "PointTable.basis_inv"),
    ("hmsr.arrange_st", "hmsr", "arrange_st"),
    ("hmsr.encode", "hmsr", "encode"),
    ("hmbr.arrange_m", "hmbr", "arrange_m"),
    ("hmbr.encode_mbr", "hmbr", "encode_mbr"),
    ("hmsr.tilde_rows", "hmsr", "tilde_rows"),
    ("hmsr.helper_response", "hmsr", "helper_response"),
    ("hmsr.recon_response", "hmsr", "recon_response"),
    ("hmsr.regenerate_plain", "hmsr", "regenerate_plain"),
    ("hmsr.regenerate_detect", "hmsr", "regenerate_detect"),
    ("hmsr.regenerate_recover", "hmsr", "regenerate_recover"),
    ("hmsr.reconstruct_plain", "hmsr", "reconstruct_plain"),
    ("hmsr.reconstruct_detect", "hmsr", "reconstruct_detect"),
    ("hmsr.reconstruct_recover", "hmsr", "reconstruct_recover"),
    ("hmbr.regenerate_mbr_plain", "hmbr", "regenerate_mbr_plain"),
    ("hmbr.regenerate_mbr_detect", "hmbr", "regenerate_mbr_detect"),
    ("hmbr.regenerate_mbr_recover", "hmbr", "regenerate_mbr_recover"),
    ("hmbr.reconstruct_mbr_plain", "hmbr", "reconstruct_mbr_plain"),
    ("hmbr.reconstruct_mbr_detect", "hmbr", "reconstruct_mbr_detect"),
    ("hmbr.reconstruct_mbr_recover", "hmbr", "reconstruct_mbr_recover"),
    ("hmsr.extract_st", "hmsr", "extract_st"),
    ("hmsr.ExtractContext", "hmsr", "ExtractContext.__init__"),
    ("hmsr.rec_st", "hmsr", "rec_st"),
    ("hmbr.rec_m", "hmbr", "rec_m"),
    ("decoder.decode", "decoder", "decode"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.vec_mat", "linalg", "vec_mat"),
    ("linalg.mat_vec", "linalg", "mat_vec"),
    ("linalg.solve_square", "linalg", "solve_square"),
    ("linalg.mat_inv", "linalg", "mat_inv"),
    ("linalg.null_space", "linalg", "null_space"),
    ("linalg.solve_least_index", "linalg", "solve_least_index"),
    ("linalg.det_nonzero", "linalg", "det_nonzero"),
)

# Kernel operations: counted, never spanned.
COUNTED = (
    ("field.mul.calls", "field", "Field.mul"),
    ("field.add.calls", "field", "Field.add"),
)

MODULES = ("field", "linalg", "curve", "matrices", "decoder", "hmsr", "hmbr",
           "sim", "cli")


def _modules():
    return [importlib.import_module(f"hrgc.{m}") for m in MODULES]


def _resolve(module, path):
    """Return (owner, attribute name, current object) for a target."""
    owner = importlib.import_module(f"hrgc.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class _Patcher:
    """Replaces bindings and remembers how to put them back."""

    def __init__(self):
        self._undo = []

    def replace(self, module, path, make):
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return original
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
        return original

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _mode_of(name, args, kwargs):
    # sim.repair(cluster, z, mode, ...) and sim.reconstruct(cluster, mode, ...)
    index = 2 if name == "sim.repair" else 1
    return args[index] if len(args) > index else kwargs.get("mode")


class Observer(_Patcher):
    """Per-layer download counts and the report/log of every sim operation."""

    def __init__(self):
        super().__init__()
        self.layer_symbols = collections.Counter()
        self.pending = []
        self.download = collections.Counter()   # (op, layer) -> symbols

    def install(self):
        self.replace("hmsr", "helper_response", self._count_help)
        self.replace("hmsr", "recon_response", self._count_rows)
        for name in ("repair", "reconstruct"):
            self.replace("sim", name, lambda fn, name=name: self._keep(name, fn))
        return self

    def _count_help(self, fn):
        def helper_response(*args, **kwargs):
            batch = fn(*args, **kwargs)
            for (l, _t) in batch.symbols:
                self.layer_symbols[l] += 1
            return batch
        return helper_response

    def _count_rows(self, fn):
        def recon_response(*args, **kwargs):
            batch = fn(*args, **kwargs)
            for l, row in batch.rows.items():
                self.layer_symbols[l] += len(row)
            return batch
        return recon_response

    def _keep(self, op, fn):
        def operation(*args, **kwargs):
            self.layer_symbols = collections.Counter()
            t0 = time.perf_counter()
            report, log = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            counted = dict(self.layer_symbols)
            for l, n in counted.items():
                self.download[(op, l)] += n
            self.pending.append({
                "op": op, "mode": _mode_of(f"sim.{op}", args, kwargs),
                "profile": args[0].profile, "report": report, "log": log,
                "counted": counted, "seconds": seconds,
            })
            return report, log
        return operation

    def take(self):
        """The sim operations completed since the last call, oldest first."""
        out, self.pending = self.pending, []
        return out


class Tracer(_Patcher):
    """In-memory spans around every wrapped call, plus call counters."""

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans = []          # [name, start, end, parent, op id, tag]
        self.stack = []
        self.counts = collections.Counter()
        self._cells = {}
        self.op = 0

    # -- spans -----------------------------------------------------------------

    def open(self, name, tag=None):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.op, tag])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = self.clock()
        self.stack.pop()

    def begin_op(self, name, tag=None):
        """Start a workload operation: a new id shared by its nested spans."""
        self.op += 1
        return self.open(name, tag)

    # -- wrappers ----------------------------------------------------------------

    def spanned(self, name, fn):
        tracer = self
        tagged = name in ("sim.repair", "sim.reconstruct")
        decoder = name == "decoder.decode"

        def wrapper(*args, **kwargs):
            tag = _mode_of(name, args, kwargs) if tagged else None
            if decoder:
                path = "wb" if kwargs.get("points") is not None else "generic"
                tracer.counts[f"decoder.decode.{path}.calls"] += 1
            sid = tracer.open(name, tag)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if decoder:
                    tracer.counts["decoder.decode.failures"] += 1
                raise
            finally:
                tracer.close(sid)
            if decoder:
                tracer.counts["decoder.errors_found"] += len(result.error_positions)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        """Count calls of a two-operand method (Field.mul, Field.add)."""
        cell = self._cells.setdefault(key, [0])

        def wrapper(obj, a, b):
            cell[0] += 1
            return fn(obj, a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        originals = []
        for name, module, path in SPANNED:
            originals.append(
                self.replace(module, path, lambda fn, n=name: self.spanned(n, fn)))
        for key, module, path in COUNTED:
            self.replace(module, path, lambda fn, k=key: self.counted(k, fn))
        self.replace("sim", "encode_node_bytes", self._count_bytes)
        unwrapped = unwrapped_bindings(originals)
        if unwrapped:
            raise RuntimeError(f"bindings left unwrapped: {unwrapped}")
        return self

    def _count_bytes(self, fn):
        def encode_node_bytes(*args, **kwargs):
            data = fn(*args, **kwargs)
            self.counts["sim.bytes_written"] += len(data)
            return data
        return encode_node_bytes

    def reset_kernel_counts(self):
        """Zero the field counters, so they cover operations only."""
        for cell in self._cells.values():
            cell[0] = 0

    def count(self, key):
        if key in self._cells:
            return self._cells[key][0]
        return self.counts.get(key, 0)

    # -- output ------------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line, once, at the end of the run."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "tag": tag}))
                fh.write("\n")


def unwrapped_bindings(originals):
    """Module-level names in hrgc that still hold one of ``originals``."""
    ids = {id(o) for o in originals}
    return sorted(f"{mod.__name__}.{key}" for mod in _modules()
                  for key, value in vars(mod).items() if id(value) in ids)


def self_times(spans):
    """name -> [calls, total seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _tag in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for sid, (name, start, end, _p, _op, _tag) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[sid]
    return out
