"""One benchmark run: set up, time a closed loop of episodes, verify, report.

Load is one process and one caller in a closed loop: the next episode
starts only after the previous one returns. End-to-end metrics come from
untraced runs; ``--trace 1`` alternates untraced and traced episodes and
derives the per-layer metrics and the tracing overhead from the pairs.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import tracer as tracer_mod
from checks import CheckFailed
from poissonprop import episode as episode_mod
from workloads import WORKLOADS, Inputs, Workload, call, capture, result_outputs, set_up
from workloads import overlap, warm_up_episode

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
VERIFY_STREAM = 0x0C4EC4  # separates the check sampling stream from the inputs'
SAMPLE_ROWS = 16  # graph rows and calibrated pixels checked per verified episode
P90_MIN_SAMPLES = 100  # p90 needs ten samples beyond it

# name -> (unit, better)
END_TO_END = {
    "episodes_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_mem_mb": ("MB", "lower"),
    "dsc_poisson": ("score", "higher"),
    # printed and written to the result file only: each can read 0 or
    # spreads across seeds by more than any bound allows (see README.md)
    "episode_p50_s": ("s", "lower"),
    "episode_p90_s": ("s", "lower"),
    "dsc_calibrated": ("score", "higher"),
    "conf_max_err": ("1", "lower"),
    "failed_frac": ("frac", "lower"),
}
# the end-to-end metrics BENCHMARK.json bounds
BOUNDED = ("episodes_per_s", "setup_s", "peak_mem_mb", "dsc_poisson")


class _Discard(io.TextIOBase):
    """Swallows the CLI's progress lines so stdout stays the report."""

    def write(self, text: str) -> int:
        return len(text)


@dataclass
class Loop:
    """What the timed episodes produced."""

    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    first: dict = field(default_factory=dict)  # pool index -> (Outputs, returned)
    problems: list[str] = field(default_factory=list)

    def episode(self, wl: Workload, inputs: Inputs, index: int, work: Path):
        """Time one episode; returns (Outputs, seconds), or None if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            returned = call(wl, inputs, index, work)
            duration = perf_counter() - start
            outputs = capture(wl, inputs, index, work, returned)
        except Exception:  # a raising episode counts in failed_frac; the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.durations.append(duration)
        if index in self.first:
            self.check(checks.check_same, "deterministic-output", outputs.blob,
                       self.first[index][0].blob)
        else:
            self.first[index] = (outputs, returned)
            self.check(checks.check_confidence_range, outputs.confidence)
        return outputs, duration

    def check(self, fn, *args):
        try:
            return fn(*args)
        except CheckFailed as err:
            self.problems.append(str(err))
            return None


def timed_loop(wl: Workload, inputs: Inputs, work: Path, seconds: float) -> Loop:
    loop = Loop()
    start = perf_counter()
    with redirect_stdout(_Discard()):
        while True:
            loop.episode(wl, inputs, loop.attempted % wl.pool, work)
            if perf_counter() - start >= seconds:
                break
    loop.wall = perf_counter() - start
    return loop


def traced_loop(wl: Workload, inputs: Inputs, work: Path, seconds: float):
    """Pairs of one untraced and one traced run of the same episode."""
    loop = Loop()
    tracer = tracer_mod.Tracer()
    untraced, traced, layers = [], [], []
    pair = 0
    start = perf_counter()
    with redirect_stdout(_Discard()):
        while True:
            index = pair % wl.pool
            plain = loop.episode(wl, inputs, index, work)
            tracer.install(pair)
            try:
                with_trace = loop.episode(wl, inputs, index, work)
            finally:
                tracer.restore()
            spans = tracer.episode_spans(pair)
            if plain is not None and with_trace is not None:
                loop.check(checks.check_same, "tracing-changes-no-output",
                           with_trace[0].blob, plain[0].blob)
                untraced.append(plain[1])
                traced.append(with_trace[1])
                try:
                    layers.append(tracer_mod.episode_layers(spans))
                except (AttributeError, IndexError, TypeError, KeyError) as err:
                    loop.problems.append(f"check layer-counts failed: {err!r}")
            for span in spans:
                span.call = None
            pair += 1
            if perf_counter() - start >= seconds:
                break
    loop.wall = perf_counter() - start
    if not tracer.all_restored():
        loop.problems.append("check tracer-restore failed: a wrapped name was not restored")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0 if traced else 0.0
    per_layer = tracer_mod.layer_metrics(layers, overhead) if layers else {}
    return loop, tracer, per_layer


def verify(wl: Workload, inputs: Inputs, loop: Loop, seed: int) -> float:
    """Checks outside the timed episodes; returns conf_max_err."""
    rng = np.random.default_rng([seed, VERIFY_STREAM])
    conf_err = 0.0
    for rank, index in enumerate(sorted(loop.first)):
        try:
            err = _verify_episode(wl, inputs, loop, index, rng, exact=rank < wl.verify)
        except Exception as exc:  # the program failed where the timed run succeeded
            loop.problems.append(f"check verification failed on episode {index}: {exc!r}")
            continue
        conf_err = max(conf_err, err)
    return conf_err


def _verify_episode(wl, inputs, loop, index, rng, exact: bool) -> float:
    """Graph, calibration and (if ``exact``) exact-solve checks for one
    pool episode; returns its max confidence error, or 0 if not solved."""
    outputs, returned = loop.first[index]
    ep = inputs.episodes[index]
    result = returned
    if wl.via_cli:
        result = episode_mod.run_episode(ep)
        library = result_outputs(result, ep.query_mask.data >= 0.5)
        for name in ("confidence", "calibrated", "mask_poisson"):
            loop.check(checks.check_same, f"cli-matches-library-{name}",
                       getattr(outputs, name).tobytes(), getattr(library, name).tobytes())
    points = result.vertex_set.points
    loop.check(checks.check_knn, result.graph, points, ep.config.knn_k, rng, SAMPLE_ROWS)
    loop.check(checks.check_calibrated, ep, outputs.confidence, outputs.calibrated,
               rng, SAMPLE_ROWS)
    if not exact:
        return 0.0
    return float(np.abs(outputs.confidence - checks.exact_confidence(result)).max())


def environment(nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "POISSONPROP_THREADS": os.environ.get("POISSONPROP_THREADS", "unset"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, nproc: int) -> int:
    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as tmp:
        work = Path(tmp)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            inputs = set_up(wl, seed, work / "inputs")
            setup_times.append(perf_counter() - start)
        try:
            episode_mod.run_episode(warm_up_episode(wl, seed))
        except Exception:  # the timed loop counts and reports failing episodes
            traceback.print_exc(file=sys.stderr)

        if trace:
            loop, tracer, per_layer = traced_loop(wl, inputs, work, seconds)
        else:
            loop = timed_loop(wl, inputs, work, seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not loop.durations:
            print(f"perfbench: {name}: no episode completed", file=sys.stderr)
            return 1
        conf_err = verify(wl, inputs, loop, seed)

    e2e = _end_to_end(wl, inputs, loop, setup_times, peak_mb, conf_err)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"episodes {loop.attempted} attempted, {loop.failed} failed, "
          f"{len(loop.durations)} timed over {loop.wall:.2f} s")
    if trace:
        # a traced run's timings are not end-to-end figures; show its correctness ones
        report = {k: (v, *tracer_mod.LAYER_METRICS[k]) for k, v in per_layer.items()}
        for key in ("dsc_poisson", "dsc_calibrated", "conf_max_err", "failed_frac"):
            report[key] = (e2e[key], *END_TO_END[key])
        if tracer.absent:
            print(f"  absent (not wrapped): {', '.join(tracer.absent)}")
        _write_json(f"spans-{name}-seed{seed}.json", {
            "workload": name,
            "seed": seed,
            "absent": tracer.absent,
            "spans": [s.record() for s in tracer.spans],
        }, indent=None)
    else:
        report = {k: (v, *END_TO_END[k]) for k, v in e2e.items()}
    for key, (value, unit, better) in report.items():
        if value is None:
            print(f"  {key:26s} {'n/a':>14s} {unit:6s} (fewer than {P90_MIN_SAMPLES} samples)")
        else:
            print(f"  {key:26s} {value:14.6g} {unit:6s} ({better} is better)")
    for problem in loop.problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)

    _write_json(f"result-{name}-seed{seed}-trace{int(trace)}.json", {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(nproc),
        "samples": len(loop.durations),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in report.items()},
        "problems": loop.problems,
        "absent": tracer.absent if trace else [],
    })
    keys = tracer_mod.LAYER_METRICS if trace else BOUNDED
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in keys if k in report},
    }))
    return 1 if loop.problems else 0


def _end_to_end(wl, inputs, loop, setup_times, peak_mb, conf_err) -> dict:
    """End-to-end values; also applies the dsc floor check."""
    dsc_poisson = statistics.fmean(
        overlap(out.mask_poisson, inputs.episodes[i].query_mask.data)
        for i, (out, _) in loop.first.items()
    )
    if dsc_poisson < wl.dsc_floor:
        loop.problems.append(
            f"check dsc-floor failed: dsc_poisson {dsc_poisson:.4f} < floor {wl.dsc_floor}"
        )
    n = len(loop.durations)
    return {
        "episode_p50_s": statistics.median(loop.durations),
        "episodes_per_s": n / loop.wall,
        "setup_s": statistics.median(setup_times),
        "peak_mem_mb": peak_mb,
        "dsc_poisson": dsc_poisson,
        "episode_p90_s": (
            statistics.quantiles(loop.durations, n=10)[-1] if n >= P90_MIN_SAMPLES else None
        ),
        "dsc_calibrated": statistics.fmean(out.dsc_calibrated for out, _ in loop.first.values()),
        "conf_max_err": conf_err,
        "failed_frac": loop.failed / loop.attempted,
    }


def _write_json(filename: str, doc: dict, indent: int | None = 1) -> None:
    (OUT_DIR / filename).write_text(json.dumps(doc, indent=indent) + "\n")
