"""hrgc benchmark: one command, three closed-loop workloads, gated outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines above it print every metric with its unit.

``--trace 0`` sets up SETUP_REPEATS times (setup_s is their median), then
runs whole workload cycles until ``--seconds`` have passed.  ``--trace 1``
runs a cycle count fixed by ``--seconds`` twice on the same inputs, untraced
and then traced, so its call counts repeat exactly, and reports the
difference between the two passes as the tracing overhead.

Exit status: 0 after a run whose every output passed the gate; 1 when an
operation returned silently wrong output or a traffic or trace check failed;
2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time

from harness import GateError, HostClock, add_src_path, median
from harness import median_throughput, peak_rss_mb, tail_percentile
from tracer import SPANNED, Observer, Tracer, self_times
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3

# Wrapped names every traced pass of a workload must reach (calls > 0).
_SHARED = {
    "sim.cluster_init", "sim.repair", "sim.reconstruct",
    "matrices.profile_new", "matrices.select_delta", "curve.enumerate_points",
    "curve.PointTable.basis_inv", "hmsr.arrange_st", "hmsr.encode",
    "hmbr.arrange_m", "hmbr.encode_mbr", "hmsr.tilde_rows",
    "hmsr.helper_response", "hmsr.recon_response", "hmsr.regenerate_detect",
    "hmsr.reconstruct_detect", "hmbr.regenerate_mbr_detect",
    "hmbr.reconstruct_mbr_detect", "hmsr.extract_st", "hmsr.ExtractContext",
    "linalg.mat_mul", "linalg.solve_square", "linalg.mat_inv",
    "linalg.det_nonzero",
}
_PLAIN = {"hmsr.regenerate_plain", "hmsr.reconstruct_plain",
          "hmbr.regenerate_mbr_plain", "hmbr.reconstruct_mbr_plain"}
REACHED = {
    "honest-cli": _SHARED | _PLAIN | {
        "cli.pack_file", "cli.unpack_file", "sim.save_cluster", "sim.save_node",
        "sim.load_cluster", "matrices.profile_from_text"},
    "honest-q5": _SHARED | _PLAIN,
    "byzantine-sim": _SHARED | {
        "hmsr.regenerate_recover", "hmsr.reconstruct_recover",
        "hmbr.regenerate_mbr_recover", "hmbr.reconstruct_mbr_recover",
        "hmsr.rec_st", "hmbr.rec_m", "decoder.decode", "linalg.null_space",
        "linalg.mat_vec"},
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_pass(workload, seed, work, seconds=None, cycles=None, tracer=None,
             setups=1):
    """One closed-loop pass: set up ``setups`` times, then run cycles until
    ``seconds`` pass or ``cycles`` are done.  Returns (ctx, setup times,
    the last setup's state)."""
    from workloads import Context
    observer = Observer().install()
    if tracer:
        tracer.install()
    try:
        clock = HostClock()
        setup_times = []
        for i in range(setups):
            directory = tempfile.mkdtemp(prefix="setup-", dir=work)
            rng = random.Random(f"hrgc-bench/{workload.name}/{seed}/setup")
            clock.sample()
            t0 = time.perf_counter()
            state = workload.setup(directory, rng)
            elapsed = time.perf_counter() - t0
            clock.sample()
            setup_times.append(clock.scale(elapsed))
        if tracer:
            tracer.reset_kernel_counts()
        observer.take()
        ctx = Context(observer, tracer, clock)
        rng = random.Random(f"hrgc-bench/{workload.name}/{seed}")
        deadline = time.perf_counter() + (seconds or 0)
        while True:
            ctx.begin_cycle()
            workload.cycle(ctx, state, rng)
            if cycles is not None and len(ctx.cycles) >= cycles:
                break
            if cycles is None and time.perf_counter() >= deadline:
                break
        return ctx, setup_times, state
    finally:
        if tracer:
            tracer.uninstall()
        observer.uninstall()


def end_to_end(ctx, setup_times):
    """Every end-to-end metric as name -> (value, unit); a metric whose
    operation the workload does not run is left out."""
    t, cycles = ctx.tally, ctx.cycles
    out = {"setup_s": (median(setup_times), "s")}
    if t.has("encode"):
        out["encode_sym_s"] = (median_throughput(cycles, "encode"), "sym/s")
    for op in ("repair", "reconstruct"):
        if not t.has(op):
            continue
        out[f"{op}_sym_s"] = (median_throughput(cycles, op), "sym/s")
        for mode in ("plain", "detect", "recover"):
            if t.has(op, mode):
                out[f"{op}_{mode}_sym_s"] = (
                    median_throughput(cycles, op, mode), "sym/s")
        out[f"{op}_traffic_ratio"] = (t.traffic_ratio(op), "sym/sym")
    out["ops_failed_frac"] = (t.failed_frac(), "frac")
    out["ops_exact_frac"] = (1.0 - t.failed_frac(), "frac")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out["host_speed_factor"] = (median(ctx.clock.factors), "x")
    return out


def per_layer(tracer, untraced, traced):
    """Every per-layer metric as name -> (value, unit): counts and self
    times of the traced pass, latencies of the untraced one."""
    out = {}
    times = self_times(tracer.spans)
    for name, _module, _path in SPANNED:
        calls, _total, self_s = times.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_ms"] = (self_s * 1000.0, "ms")
    for name in sorted(times):
        if name.startswith("op."):
            calls, _total, self_s = times[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (self_s * 1000.0, "ms")
    for key in ("decoder.decode.wb.calls", "decoder.decode.generic.calls",
                "decoder.decode.failures", "decoder.errors_found",
                "field.mul.calls", "field.add.calls", "sim.bytes_written"):
        out[key] = (tracer.count(key), "B" if key.endswith("written")
                    else "count")
    for op in ("repair", "reconstruct"):
        for l in range(5):
            out[f"sim.download.{op}.l{l}"] = (
                traced.observer.download.get((op, l), 0), "sym")
    out["sim.escalations"] = (traced.escalations, "count")
    out["sim.detect_clean_frac"] = (
        traced.detect_clean / traced.detect_ops if traced.detect_ops else 0.0,
        "frac")
    # Latencies come from the untraced pass, which runs the same inputs.
    for (op, mode), samples in sorted(untraced.sim_latency.items()):
        p50, tail, n = tail_percentile([s * 1000.0 for s in samples])
        out[f"sim.{op}.{mode}.p50_ms"] = (p50, "ms")
        out[f"sim.{op}.{mode}.samples"] = (n, "count")
        if tail:
            p, value, beyond = tail
            out[f"sim.{op}.{mode}.p{p:g}_ms"] = (value, "ms")
            out[f"sim.{op}.{mode}.p{p:g}_beyond"] = (beyond, "count")
    t_un, t_tr = untraced.tally.op_seconds(), traced.tally.op_seconds()
    out["trace.slowdown"] = (t_tr / t_un if t_un else 0.0, "x")
    return out


def check_trace(name, metrics):
    """Trace completeness: every name the workload reaches was seen, and the
    decoder runs only under an adversary."""
    missing = sorted(n for n in REACHED[name] if not metrics[f"{n}.calls"][0])
    if missing:
        raise GateError(f"{name}: traced names with no calls: {missing}")
    decodes = metrics["decoder.decode.calls"][0]
    if (decodes > 0) != (name == "byzantine-sim"):
        raise GateError(f"{name}: decoder.decode.calls = {decodes}")


def _print_table(title, metrics):
    print(f"# {title}")
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:>16.6g} {unit}")


def _result(metrics, names, tally, correct=True):
    missing = [n for n in names if n not in metrics]
    if missing:
        raise GateError(f"metrics not produced by this workload: {missing}")
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                        for n in names}}


def trace_cycles(workload, seconds):
    """Cycles of a traced run: fixed by --seconds, never by the clock, so two
    traced runs with the same arguments repeat every count."""
    return max(1, round(seconds * workload.trace_rate))


def run_workload(name, seed, seconds, trace, spec):
    workload = WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        if not trace:
            ctx, setups, state = run_pass(workload, seed, work,
                                          seconds=seconds, setups=SETUP_REPEATS)
            metrics = end_to_end(ctx, setups)
            metrics.update(workload.extra_metrics(state))
            _print_table(f"{name} seed={seed} cycles={len(ctx.cycles)} "
                         f"attempted={ctx.tally.attempted}", metrics)
            names = [m["name"] for m in spec["end_to_end"]]
            return _result(metrics, names, ctx.tally)
        cycles = trace_cycles(workload, seconds)
        untraced, setups_u, _ = run_pass(workload, seed, work, cycles=cycles)
        tracer = Tracer()
        traced, setups_t, _ = run_pass(workload, seed, work, cycles=cycles,
                                       tracer=tracer)
        base = end_to_end(untraced, setups_u)
        with_trace = end_to_end(traced, setups_t)
        overhead = {k: (with_trace[k][0] - v, v_unit)
                    for k, (v, v_unit) in base.items() if k in with_trace}
        metrics = per_layer(tracer, untraced, traced)
        check_trace(name, metrics)
        _print_table(f"{name} seed={seed} untraced, {cycles} cycles", base)
        _print_table(f"{name} seed={seed} traced minus untraced", overhead)
        _print_table(f"{name} seed={seed} per layer (traced)", metrics)
        spans_path = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        print(f"# spans: {os.path.relpath(spans_path, ROOT)} "
              f"({len(tracer.spans)} spans)")
        names = [m["name"] for m in spec["per_layer"]]
        return _result(metrics, names, traced.tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        add_src_path(ROOT)
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot run here: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace, spec)
        except GateError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
            status = 1
        sys.stdout.flush()
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
