"""Set-up, the closed measurement loop, and the result of one benchmark run.

Untraced runs (``trace=False``) give the end-to-end metrics.  Traced runs
alternate untraced and traced passes over the workload's calls and give the
per-layer metrics, averaged per traced pass, plus the tracing overhead: the
median traced pass time over the median untraced pass time.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from mvcodec import backproject

END_TO_END = (
    ("kpix_s", "kpix/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# set-up repeats until it has run at least MIN times and either MAX times or
# for SETUP_BUDGET_S seconds in total; setup_s is the median
SETUP_MIN_RUNS = 3
SETUP_MAX_RUNS = 50
SETUP_BUDGET_S = 2.0


@dataclass
class Tally:
    """Timings and check outcomes of the calls of one run."""

    times: dict[int, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, index: int, elapsed: float | None, error: str | None) -> None:
        """One attempted call; ``elapsed`` is None when the call raised."""
        self.attempted += 1
        if elapsed is not None:
            self.times.setdefault(index, []).append(elapsed)
        if error is not None:
            self.failed += 1
            self.reasons.append(error)


def run_setup(name: str, profile: workloads.Profile, variant: int):
    """Run set-up repeatedly; returns (ops of the last run, median seconds)."""
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        ops = workloads.SETUPS[name](profile, variant)
        durations.append(time.perf_counter() - t0)
        if len(durations) >= SETUP_MIN_RUNS and (
            len(durations) >= SETUP_MAX_RUNS or sum(durations) >= SETUP_BUDGET_S
        ):
            return ops, statistics.median(durations)


def _call(op: workloads.Op):
    """(output, seconds, error); a call that raises is a failed call, not a crash."""
    t0 = time.perf_counter()
    try:
        output = op.call()
    except Exception:  # noqa: BLE001 - a failing call is counted, the run goes on
        return None, None, f"{op.label}: {traceback.format_exc()}"
    return output, time.perf_counter() - t0, None


def _check(op: workloads.Op, output) -> str | None:
    try:
        return op.check(output)
    except Exception:  # noqa: BLE001 - a check that raises is a failed check
        return f"{op.label}: check raised {traceback.format_exc()}"


def measure(ops: list[workloads.Op], seconds: float) -> Tally:
    """Untraced closed loop over the ops until ``seconds`` have passed.

    Every op runs at least once; each output is checked outside the timed
    call.
    """
    tally = Tally()
    start = time.perf_counter()
    done_pass = False
    while True:
        for i, op in enumerate(ops):
            output, elapsed, error = _call(op)
            tally.record(i, elapsed, error or _check(op, output))
            if done_pass and time.perf_counter() - start >= seconds:
                return tally
        done_pass = True
        if time.perf_counter() - start >= seconds:
            return tally


@dataclass
class TracedRun:
    tally: Tally
    tracer: tracing.Tracer
    traced_passes: int
    untraced_pass_s: list[float]
    traced_pass_s: list[float]
    stream_bytes: int


def measure_traced(ops: list[workloads.Op], seconds: float) -> TracedRun:
    """Alternate untraced and traced passes until ``seconds`` have passed.

    Outputs of a traced pass are checked after the tracer is uninstalled, so
    no check shows up in a span.
    """
    tracer = tracing.Tracer()
    tally = Tally()
    pass_s = {False: [], True: []}
    stream_bytes = 0
    start = time.perf_counter()
    traced = False
    while True:
        outputs = []
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                tracer.clip = i
                outputs.append(_call(op))
        finally:
            tracer.uninstall()
        pass_s[traced].append(sum(elapsed or 0.0 for _, elapsed, _ in outputs))
        for i, (op, (output, elapsed, error)) in enumerate(zip(ops, outputs)):
            tally.record(i, elapsed, error or _check(op, output))
            if traced and isinstance(output, bytes):
                stream_bytes += len(output)
        if traced and time.perf_counter() - start >= seconds:
            break
        traced = not traced
    return TracedRun(tally, tracer, len(pass_s[True]), pass_s[False], pass_s[True], stream_bytes)


def call_time(samples: list[float]) -> float:
    """The third quartile of one call's times.

    On a shared machine call times are bimodal: neighbours' load slows a
    call by up to half for seconds at a time.  The median jumps between the
    two modes as their mix nears even; the third quartile stays in the
    slower, more common mode and so varies about half as much between runs.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def throughput_kpix_s(ops: list[workloads.Op], tally: Tally, stage: str | None = None) -> float:
    """Pixels of one pass over the summed call times, in kpix/s.

    Only the ops of ``stage`` count when it is given.
    """
    chosen = [i for i, op in enumerate(ops) if stage in (None, op.stage)]
    if any(i not in tally.times for i in chosen):
        return float("nan")
    pixels = sum(ops[i].pixels for i in chosen)
    seconds = sum(call_time(tally.times[i]) for i in chosen)
    return pixels / seconds / 1e3


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_values(run: TracedRun) -> dict[str, float]:
    """Every per-layer metric, per traced pass."""
    n = run.traced_passes
    totals = run.tracer.totals()
    values: dict[str, float] = {}
    for name in tracing.span_names():
        calls, self_s = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = self_s / n
    # counted from the recorded back projections, with the tracer uninstalled
    clamped = total = 0
    for args, kwargs in run.tracer.projections:
        report = backproject.projection_report(*args, **kwargs)
        clamped += report.coefficients_clamped
        total += args[1].prediction.pixels.size
    values["bitio.stream_bytes"] = run.stream_bytes / n
    values["backproject.coeffs_clamped"] = clamped / n
    values["backproject.coeffs_total"] = total / n
    values["nn.conv_forward.col_mb"] = run.tracer.col_bytes / 1e6 / n
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(run.traced_pass_s) / statistics.median(run.untraced_pass_s) - 1.0
    )
    return values


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, else the pinning variable."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} (from OPENBLAS_NUM_THREADS)"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    profile: str = "full",
    spans_dir: Path | None = None,
) -> dict:
    """Run one workload; returns the result object the benchmark prints last."""
    variant = workloads.variant_of(seed)
    ops, setup_s = run_setup(workload, workloads.PROFILES[profile], variant)
    pins = workloads.load_pins(profile, workload, variant)
    for op in ops:
        op.pinned = pins.get(op.label)
    report = {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "profile": profile,
        "ops": [op.label for op in ops],
    }
    if trace:
        traced = measure_traced(ops, seconds)
        tally = traced.tally
        values = per_layer_values(traced)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in tracing.per_layer_metrics()
        }
        report["traced_passes"] = traced.traced_passes
        if spans_dir is not None:
            path = spans_dir / f"spans_{workload}.npz"
            traced.tracer.write_spans(path, workload, seed, report["ops"])
            report["spans"] = str(path)
    else:
        tally = measure(ops, seconds)
        values = {
            "kpix_s": throughput_kpix_s(ops, tally),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report["samples_per_op"] = [len(tally.times.get(i, [])) for i in range(len(ops))]
        for stage in dict.fromkeys(op.stage for op in ops):
            report[f"{stage}_kpix_s"] = throughput_kpix_s(ops, tally, stage)
        if workload == "train" and tally.times:
            iters = workloads.PROFILES[profile].train_iters
            report["train_ms_per_iter"] = 1e3 * call_time(tally.times[0]) / iters
    report["fail_share"] = tally.failed / tally.attempted
    report["failures"] = tally.reasons[:5]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "report": report,
    }


def print_result(result: dict, out=sys.stdout) -> None:
    """Human-readable lines, then the result JSON as the last line."""
    report = result["report"]
    print("env " + json.dumps(environment(), sort_keys=True), file=out)
    print("run " + json.dumps(report, sort_keys=True), file=out)
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}", file=out)
    for name, value in report.items():
        if name.endswith("_kpix_s"):
            print(f"{name:<44} {value:>16.6g} kpix/s (not gated)", file=out)
    if "train_ms_per_iter" in report:
        print(f"{'train_ms_per_iter':<44} {report['train_ms_per_iter']:>16.6g} ms (not gated)", file=out)
    print(
        f"{'fail_share':<44} {report['fail_share']:>16.6g} "
        f"({result['failed']} failed of {result['attempted']} attempted)",
        file=out,
    )
    for reason in report["failures"]:
        print("FAILED " + reason.rstrip().replace("\n", "\n       "), file=sys.stderr)
    final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), file=out)
