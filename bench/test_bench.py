"""Tests of the benchmark's own code: its arithmetic, its percentile rule,
self time, the correctness gate and the binding wrappers.

Run with ``python -m pytest bench``.  The program under test is never
edited: fakes are installed over its bindings the same way the tracer is.
"""

import os
import random

import pytest

from harness import REFERENCE_S, GateError, HostClock, Tally, add_src_path
from harness import check_report, median_throughput, tail_percentile
from tracer import Observer, Tracer, self_times, unwrapped_bindings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
add_src_path(ROOT)

from hrgc import hmbr, hmsr, sim  # noqa: E402
from hrgc.matrices import profile_new  # noqa: E402
from workloads import Context, _SimWorkload  # noqa: E402


# -- arithmetic ---------------------------------------------------------------------


def test_throughput_pools_modes_and_counts_only_exact_symbols():
    t = Tally()
    t.record("repair", "plain", 0.5, 100, True, downloaded=150)
    t.record("repair", "detect", 1.5, 100, True, downloaded=200)
    t.record("repair", "recover", 1.0, 100, False, downloaded=300,
             guaranteed=False)
    assert t.throughput("repair", "plain") == pytest.approx(200.0)
    assert t.throughput("repair", "detect") == pytest.approx(100 / 1.5)
    assert t.throughput("repair", "recover") == 0.0
    assert t.throughput("repair") == pytest.approx(200 / 3.0)
    # the traffic of exact results, per symbol they rebuilt
    assert t.traffic_ratio("repair") == pytest.approx(350 / 200)
    assert (t.attempted, t.inexact, t.failed) == (3, 1, 0)
    assert t.failed_frac() == pytest.approx(1 / 3)
    assert t.has("repair", "detect") and not t.has("reconstruct")
    assert t.throughput("reconstruct") == 0.0


def test_failure_the_program_promised_to_avoid_counts_as_failed():
    t = Tally()
    t.record("reconstruct", "detect", 0.1, 60, False)
    assert (t.attempted, t.failed, t.inexact) == (1, 1, 1)


def test_median_throughput_takes_the_median_cycle():
    cycles = []
    for seconds in (1.0, 2.0, 10.0):       # the third cycle hit a busy host
        c = Tally()
        c.record("encode", "-", seconds / 2, 100, True)
        c.record("encode", "-", seconds / 2, 100, True)
        cycles.append(c)
    cycles.append(Tally())                 # a cycle without the operation
    assert median_throughput(cycles, "encode") == pytest.approx(100.0)
    assert median_throughput(cycles, "encode", "-") == pytest.approx(100.0)


def test_host_clock_scales_to_the_reference_speed():
    loops = iter([2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S,
                  0.5 * REFERENCE_S, 0.5 * REFERENCE_S, 0.5 * REFERENCE_S])
    clock = HostClock(window=3, loop=lambda: next(loops))
    clock.sample()
    assert clock.scale(1.0) == pytest.approx(0.5)    # host at half speed
    clock.sample()
    clock.sample()
    assert clock.scale(1.0) == pytest.approx(0.5)    # median of 2, 2, 4
    for _ in range(3):
        clock.sample()
    assert clock.scale(3.0) == pytest.approx(6.0)    # only the last 3 count
    assert clock.factors == pytest.approx([0.5, 0.5, 2.0])


# -- percentiles ------------------------------------------------------------------------


@pytest.mark.parametrize("n, p, beyond", [
    (19, None, None),      # even the median has only 9 samples beyond it
    (20, 50.0, 10),
    (40, 75.0, 10),
    (100, 90.0, 10),
    (199, 90.0, 19),       # p95 would leave 9
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p, beyond):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    p50, tail, count = tail_percentile(samples)
    assert count == n
    assert p50 == (n + 1) // 2
    if p is None:
        assert tail is None
        return
    got_p, value, got_beyond = tail
    assert (got_p, got_beyond) == (p, beyond)
    assert sum(1 for s in samples if s > value) == beyond


def test_tail_of_no_samples():
    assert tail_percentile([]) == (None, None, 0)


# -- self time ------------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] -> a [1, 6] -> b [2, 4]; op -> a [7, 9]
    spans = [
        ["op", 0.0, 10.0, None, 1, None],
        ["a", 1.0, 6.0, 0, 1, None],
        ["b", 2.0, 4.0, 1, 1, None],
        ["a", 7.0, 9.0, 0, 1, None],
    ]
    times = self_times(spans)
    assert times["op"] == [1, 10.0, 3.0]
    assert times["a"] == [2, 7.0, 5.0]
    assert times["b"] == [1, 2.0, 2.0]


def test_tracer_nests_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    op = tr.begin_op("op.repair", "plain")
    inner = tr.open("linalg.mat_mul")
    tr.close(inner)
    tr.close(op)
    assert tr.spans == [["op.repair", 0.0, 3.0, None, 1, "plain"],
                        ["linalg.mat_mul", 1.0, 2.0, 0, 1, None]]
    assert self_times(tr.spans)["op.repair"] == [1, 3.0, 2.0]


# -- the gate --------------------------------------------------------------------------------


class _Report:
    def __init__(self, ok, message=None, corrupted=(), failure=None):
        self.ok, self.message = ok, message
        self.corrupted = frozenset(corrupted)
        self.failure, self.alarm = failure, None


def test_gate_on_reports():
    def gate(report, liars=()):
        return check_report("x", report, report.message, [1, 2], liars)

    assert gate(_Report(True, [1, 2])) is True
    assert gate(_Report(False, failure="budget")) is False
    with pytest.raises(GateError):
        gate(_Report(True, [1, 3]))
    with pytest.raises(GateError):
        gate(_Report(True, [1, 2], corrupted={4}), {5})
    with pytest.raises(GateError):
        gate(_Report(False))


class _TinyMbr(_SimWorkload):
    name = "tiny"
    codes = (("mbr", 3, 8, (3, 2, 1), (2, 2, 1), 3),)


@pytest.fixture
def tiny():
    profile = profile_new("mbr", 3, 8, (3, 2, 1), k=(2, 2, 1), seed=3)
    rng = random.Random(7)
    return _TinyMbr(), profile, rng


def _with_fake(monkeypatch, module, name, fake):
    """Put ``fake`` over every binding of module.name, as the tracer does."""
    original = getattr(module, name)
    for mod in (hmsr, hmbr, sim):
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, fake(original))


def _context(observer):
    ctx = Context(observer)
    ctx.begin_cycle()
    return ctx


def test_gate_passes_the_real_program(tiny):
    workload, profile, rng = tiny
    obs = Observer().install()
    try:
        ctx = _context(obs)
        cluster, message = workload._encode(ctx, profile, rng)
        workload._reconstruct(ctx, cluster, message, "detect")
        workload._repair(ctx, cluster, 4, "plain")
    finally:
        obs.uninstall()
    assert ctx.tally.attempted == 3 and ctx.tally.inexact == 0


def test_gate_rejects_a_silently_wrong_reconstruct(tiny, monkeypatch):
    workload, profile, rng = tiny

    def fake(real):
        def reconstruct(*args, **kwargs):
            report, log = real(*args, **kwargs)
            report.message = list(report.message)
            report.message[0] ^= 1
            return report, log
        return reconstruct

    _with_fake(monkeypatch, sim, "reconstruct", fake)
    obs = Observer().install()
    try:
        ctx = _context(obs)
        cluster, message = workload._encode(ctx, profile, rng)
        with pytest.raises(GateError, match="differs"):
            workload._reconstruct(ctx, cluster, message, "plain")
    finally:
        obs.uninstall()


def _wrong_node(report):
    report.y = [row[:] for row in report.y]
    report.y[0][0] ^= 1


def _blame_honest(report):
    report.corrupted = frozenset({1})


@pytest.mark.parametrize("spoil, match", [(_wrong_node, "differs"),
                                          (_blame_honest, "honest nodes")])
def test_gate_rejects_a_wrong_repair(tiny, monkeypatch, spoil, match):
    workload, profile, rng = tiny

    def fake(real):
        def repair(*args, **kwargs):
            report, log = real(*args, **kwargs)
            spoil(report)
            return report, log
        return repair

    _with_fake(monkeypatch, sim, "repair", fake)
    obs = Observer().install()
    try:
        ctx = _context(obs)
        cluster, message = workload._encode(ctx, profile, rng)
        with pytest.raises(GateError, match=match):
            workload._repair(ctx, cluster, 2, "plain")
    finally:
        obs.uninstall()


def test_traffic_check_rejects_an_extra_help_symbol(tiny, monkeypatch):
    workload, profile, rng = tiny

    def fake(real):
        def helper_response(*args, **kwargs):
            batch = real(*args, **kwargs)
            batch.symbols[(0, 99)] = 0
            return batch
        return helper_response

    _with_fake(monkeypatch, hmsr, "helper_response", fake)
    obs = Observer().install()
    try:
        ctx = _context(obs)
        cluster, _ = workload._encode(ctx, profile, rng)
        with pytest.raises(GateError, match="audit"):
            workload._repair(ctx, cluster, 3, "plain")
    finally:
        obs.uninstall()


# -- bindings --------------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them(tiny):
    workload, profile, rng = tiny
    original = hmsr.helper_response
    assert hmbr.helper_response is original
    tr = Tracer().install()
    try:
        assert hmbr.helper_response is not original
        assert not unwrapped_bindings([original])
        nodes = hmbr.encode_mbr(hmbr.arrange_m([0] * profile.B, profile), profile)
        hmbr.helper_response(nodes[1], profile, 0, 0)
        hmsr.helper_response(nodes[2], profile, 0, 0)
        profile.field.mul(2, 3)
    finally:
        tr.uninstall()
    assert hmsr.helper_response is original and hmbr.helper_response is original
    times = self_times(tr.spans)
    assert times["hmsr.helper_response"][0] == 2
    assert times["hmbr.encode_mbr"][0] == 1
    assert tr.count("field.mul.calls") > 0


def test_add_src_path_refuses_a_checkout_without_the_program(tmp_path):
    with pytest.raises(FileNotFoundError):
        add_src_path(str(tmp_path))
