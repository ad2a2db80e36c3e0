"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from aotomo import acousto, diffusion, fields, inversion  # noqa: E402


@pytest.mark.parametrize("ranges", [[workloads.ONE_DISK],
                                    workloads.TWO_DISKS])
def test_seeded_inputs_are_deterministic(ranges):
    assert workloads.phantom_doc(7, ranges) == workloads.phantom_doc(7, ranges)
    assert workloads.phantom_doc(7, ranges) != workloads.phantom_doc(8, ranges)


def test_seeded_inputs_stay_in_their_ranges():
    for seed in range(20):
        doc = workloads.phantom_doc(seed, workloads.TWO_DISKS)
        for inc, r in zip(doc["inclusions"], workloads.TWO_DISKS):
            assert inc["params"]["center"] == list(r["center"])
            assert r["amplitude"][0] <= inc["amplitude"] <= r["amplitude"][1]


def test_self_time_is_span_minus_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_summary_uses_self_times():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    summary = rec.summary()
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - summary["inner"]["s"])
    assert rec.parents == [-1, 0, 0]


def test_error_rate_counts_an_injected_failure():
    ops = workloads.Ops(layers.CgAudit())
    assert ops.run("ok", lambda: 1) == 1

    def boom():
        raise RuntimeError("injected")

    with pytest.raises(workloads.RepAborted):
        ops.run("bad", boom)
    with pytest.raises(workloads.RepAborted):
        ops.run("bad check", lambda: 2,
                lambda out: workloads.check(False, "injected"))
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.error_rate == pytest.approx(2 / 3)


def test_patcher_reaches_names_imported_elsewhere():
    original = diffusion.solve_T
    patcher = spans.Patcher()
    rec = spans.Recorder()
    patcher.replace(diffusion, "solve_T",
                    lambda fn: rec.wrap("diffusion.solve_T", fn))
    try:
        assert acousto.solve_T is diffusion.solve_T is inversion.solve_T
        assert inversion.solve_T is not original
    finally:
        patcher.restore()
    assert acousto.solve_T is original and inversion.solve_T is original


def test_tracer_patches_and_restores_every_function():
    before = {(id(o), a): o.__dict__[a]
              for o, a, _, _ in layers.traced_functions()}
    patcher = spans.Patcher()
    layers.install_tracer(patcher, spans.Recorder())
    assert fields.cg is not before[(id(fields), "cg")]
    patcher.restore()
    after = {(id(o), a): o.__dict__[a]
             for o, a, _, _ in layers.traced_functions()}
    assert after == before


def test_cg_audit_sees_residual_against_tolerance():
    import numpy as np

    audit = layers.CgAudit()
    patcher = spans.Patcher()
    audit.install(patcher)
    try:
        fields.cg(lambda x: 2.0 * x, np.ones(4), tol=1e-8)
    finally:
        patcher.restore()
    assert audit.calls == 1
    assert 0.0 <= audit.worst_ratio <= 1.0


def test_per_layer_names_are_unique_and_valid():
    names = [n for n, _ in layers.PER_LAYER]
    assert len(names) == len(set(names)) <= 128
    for n in names:
        assert len(n) <= 64 and n[0].isalnum()
        assert all(c.isalnum() or c in "_.-" for c in n)


def test_benchmark_json_lists_the_per_layer_metrics():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        layers.PER_LAYER
