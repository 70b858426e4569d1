"""Tests of the benchmark itself, on the tiny input profile.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracing
import workloads
from mvcodec import alignment, backproject, bitio, codec, nn, restorer, transform

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# the workloads on which each span or counter must be nonzero; on every other
# workload it must be zero, which is the "no change" prediction
EXERCISED = {
    "codec.motion_search": {"codec"},
    "codec.encode_sequence": {"codec"},
    "codec.decode_sequence": {"codec"},
    "transform.dct2d": {"codec", "restore"},
    "transform.quantize": {"codec"},
    "transform.idct2d": {"codec", "restore"},
    "transform.dequantize": {"codec", "restore"},
    "transform.coeff_bounds": {"restore"},
    "backproject.back_project_frame": {"restore"},
    "alignment.deformable_gather": {"restore", "train"},
    "alignment.deformable_gather_backward": {"train"},
    "alignment.warp_mv": {"restore", "train"},
    "alignment.warp_mv_backward": {"train"},
    "alignment.rasterize_motion": {"restore", "train"},
    **{f"nn.conv_forward.{shape}": {"restore", "train"} for shape in tracing.CONV_SHAPES},
    **{f"nn.conv_backward.{shape}": {"train"} for shape in tracing.CONV_SHAPES},
    "nn.adam_step": {"train"},
    "restorer.restore_sequence": {"restore"},
    "restorer.restorer_forward_cached": {"restore", "train"},
    "restorer.restorer_backward": {"train"},
    "restorer.build_aux_planes": {"restore"},
    "restorer.train_restorer": {"train"},
    "bitio.BitWriter.write_ue": {"codec"},
    "bitio.BitReader.read_ue": {"codec"},
}
COUNTED = {
    "bitio.stream_bytes": {"codec"},
    "backproject.coeffs_total": {"restore"},
    "nn.conv_forward.col_mb": {"restore", "train"},
}


@pytest.fixture(scope="module")
def traced_runs():
    return {
        name: harness.run(name, seed=5, seconds=0.0, trace=True, profile="tiny")
        for name in run.WORKLOADS
    }


def values(result: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_every_span_is_listed():
    assert set(EXERCISED) == set(tracing.span_names())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reaches_every_mapped_layer(traced_runs, workload):
    result = traced_runs[workload]
    assert result["correct"], result["report"]["failures"]
    got = values(result)
    for name, where in EXERCISED.items():
        assert (got[f"{name}.calls"] > 0) == (workload in where), name
        if workload not in where:
            assert got[f"{name}.self_s"] == 0.0, name
    for name, where in COUNTED.items():
        assert (got[name] > 0) == (workload in where), name
    assert set(got) == {name for name, _ in tracing.per_layer_metrics()}


def test_tracer_patches_every_binding_and_restores_it():
    expected = [
        (restorer, "conv_forward_cached", nn.conv_forward_cached),
        (restorer, "conv_backward", nn.conv_backward),
        (restorer, "adam_step", nn.adam_step),
        (restorer, "warp_mv", alignment.warp_mv),
        (restorer, "warp_mv_backward", alignment.warp_mv_backward),
        (restorer, "deformable_gather_cached", alignment.deformable_gather_cached),
        (restorer, "deformable_gather_backward", alignment.deformable_gather_backward),
        (restorer, "rasterize_motion", alignment.rasterize_motion),
        (restorer, "build_aux_planes", restorer.build_aux_planes),
        (codec, "dct2d", transform.dct2d),
        (codec, "quantize", transform.quantize),
        (codec, "idct2d", transform.idct2d),
        (codec, "dequantize", transform.dequantize),
        (backproject, "coeff_bounds", transform.coeff_bounds),
        (backproject, "dct2d", transform.dct2d),
        (backproject, "back_project_frame", backproject.back_project_frame),
        (bitio.BitWriter, "write_ue", bitio.BitWriter.__dict__["write_ue"]),
        (bitio.BitReader, "read_ue", bitio.BitReader.__dict__["read_ue"]),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = {(owner, attr): orig for owner, attr, orig in tracer.patches}
        for owner, attr, original in expected:
            assert originals.get((owner, attr)) is original, (owner, attr)
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert tracer.patches == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)
    for owner, attr, original in expected:
        assert vars(owner)[attr] is original, (owner, attr)


def test_traced_run_leaves_originals_in_place(traced_runs):
    assert codec.motion_search.__module__ == "mvcodec.codec"
    assert not hasattr(restorer.conv_forward_cached, "__wrapped__")
    assert not hasattr(bitio.BitWriter.write_ue, "__wrapped__")
    assert not hasattr(backproject.back_project_frame, "__wrapped__")


def test_codec_counts_repeat_exactly(traced_runs):
    again = values(harness.run("codec", seed=5, seconds=0.0, trace=True, profile="tiny"))
    first = values(traced_runs["codec"])
    keys = [k for k in first if k.endswith(".calls") and k.startswith(("codec.", "bitio."))]
    keys.append("bitio.stream_bytes")
    assert {k: first[k] for k in keys} == {k: again[k] for k in keys}
    assert first["bitio.stream_bytes"] > 0


def test_self_times_add_up_to_the_outermost_spans():
    tracer = tracing.Tracer()
    ops, _ = harness.run_setup("restore", workloads.PROFILES["tiny"], 0)
    tracer.install()
    try:
        ops[0].call()
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    spans = tracer.spans()
    outer = spans["parent"] < 0
    assert outer.sum() == 1
    wall = float((spans["end"] - spans["start"])[outer][0])
    assert sum(s for _, s in totals.values()) == pytest.approx(wall, rel=1e-9)
    assert all(s >= 0.0 for _, s in totals.values())


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_result_as_last_line(trace):
    proc = _run_cli(ROOT, "--workload", "train", "--seed", "7", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "codec", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
