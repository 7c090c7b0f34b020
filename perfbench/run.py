#!/usr/bin/env python3
"""fedgs-sim benchmark: end-to-end sweep metrics, or a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload default_sweep --seed 1 --seconds 40 --trace 0

The workload's config is generated from --seed and run through the user's
entry point, `fedgs-sim run`, called in-process on the default serial path.
Set-up time is measured first, in fresh processes; then sweeps repeat while
the next one fits in --seconds from the start of the process, at least
workloads.MIN_SWEEPS times (so a run on a slow machine may overrun). Every
sweep's results.csv is checked. With --trace 1 there are no set-up probes,
untraced sweeps alternate with sweeps that have every import site in
tracer.SITES wrapped, and the run reports per-layer metrics instead.

Human-readable lines go to stdout with a "perfbench:" prefix; the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Working
files go under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

START = time.perf_counter()

# One process, one thread: BLAS and OpenMP pools pinned before numpy loads.
# Set-up probes inherit the pins.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
if not (SRC / "fedgs_sim" / "cli.py").is_file():
    print(f"perfbench: no fedgs_sim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fedgs_sim.config import render_config  # noqa: E402

# Fresh processes timed for setup_s; one more runs first, untimed, so that
# every timed one finds the bytecode cache written.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    if n_samples < 20:
        raise ValueError(f"{n_samples} rounds leave fewer than ten beyond the median")
    return (100 * (n_samples - 10)) // n_samples


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_state(root: Path) -> tuple[str | None, bool | None]:
    if not (root / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True, check=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path, args: argparse.Namespace) -> dict:
    sha, dirty = git_state(root)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src_digest(root / "src"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def measure_setup(config: Path) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of each timed fresh process.

    Each process imports fedgs_sim, parses the config and builds every
    seed's federation, then times the reference kernel right after.
    """
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)]
    probes = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        setup_s, reference_s = map(float, done.stdout.split()[-2:])
        if attempt:
            probes.append((setup_s, reference_s))
    return probes


@dataclass(frozen=True)
class Sweep:
    """One `fedgs-sim run` call on the workload config; csv_text is None if it failed."""

    wall_s: float
    csv_text: str | None
    error: str | None


def run_sweep(cli, config: Path, out_dir: Path) -> Sweep:
    out_dir.mkdir(parents=True)
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(["run", "--config", str(config), "--out", str(out_dir)])
    except Exception:  # a crashed sweep is reported as failed runs, not a crashed benchmark
        code = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    if error is None and code != 0:
        error = f"fedgs-sim run exited with {code}"
    if error is not None:
        print(error, file=sys.stderr)
        return Sweep(wall_s, None, error)
    return Sweep(wall_s, (out_dir / "results.csv").read_text(), None)


def timed_sweeps(cli, config: Path, work: Path, deadline: float) -> tuple[list[Sweep], list[float]]:
    """Sweeps, and the reference kernel's time before the first and after each one.

    Sweeps until the next one (and its reference sample) might end past the
    deadline, at least MIN_SWEEPS times.
    """
    sweeps: list[Sweep] = []
    reference_s = [reference.sample()]
    while len(sweeps) < workloads.MIN_SWEEPS or (
        time.perf_counter() + max(s.wall_s for s in sweeps) + reference_s[-1] <= deadline
    ):
        sweeps.append(run_sweep(cli, config, work / f"sweep{len(sweeps)}"))
        reference_s.append(reference.sample())
    return sweeps, reference_s


def check_sweeps(workload, cfg, sweeps: list[Sweep]) -> tuple[int, list[str]]:
    """(runs attempted, problems); a run is one (seed, strategy) pair of one sweep."""
    (seed,) = cfg.seeds
    attempted = 0
    failed: list[str] = []
    first = next((s.csv_text for s in sweeps if s.csv_text is not None), None)
    for index, sweep in enumerate(sweeps):
        attempted += len(checks.STRATEGIES)
        if sweep.csv_text is None:
            failed += [f"sweep {index} ({seed}, {s}): {sweep.error.strip().splitlines()[-1]}" for s in checks.STRATEGIES]
            continue
        problems = checks.check_results(sweep.csv_text, cfg, workload.dice_band)
        for run, found in checks.check_identical(first, sweep.csv_text, seed).items():
            problems[run] += found
        failed += [f"sweep {index} {run}: {'; '.join(found)}" for run, found in problems.items() if found]
    return attempted, failed


def end_to_end(
    cfg, sweeps: list[Sweep], reference_s: list[float], probes: list[tuple[float, float]]
) -> tuple[dict, dict]:
    """End-to-end metrics.

    Timings are at reference speed: each sweep, and each round in it, is
    scaled by the reference kernel's nominal time over the mean of the
    samples taken just before and just after it; each set-up probe by the
    sample its own process took.
    """
    scales = [2.0 * reference.NOMINAL_S / (a + b) for a, b in zip(reference_s, reference_s[1:])]
    scaled = [ms * scale for s, scale in zip(sweeps, scales) for ms in checks.wall_ms(s.csv_text)]
    walls = [ms for s in sweeps for ms in checks.wall_ms(s.csv_text)]
    percentile = tail_percentile(workloads.MIN_SWEEPS * workloads.rounds_per_sweep(cfg))
    final = checks.final_round(sweeps[0].csv_text, cfg.rounds)
    metrics = {
        "sweep_s": (statistics.median(s.wall_s * scale for s, scale in zip(sweeps, scales)), "s"),
        "round_ms_p50": (statistics.median(scaled), "ms"),
        "round_ms_tail": (nearest_rank(scaled, percentile), "ms"),
        "setup_s": (statistics.median(s * reference.NOMINAL_S / r for s, r in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_dice": (statistics.fmean(r["dice"] for r in final.values()), "1"),
        "final_dice_s_ratio": (final["fedgs"]["dice_s"] / final["fedavg"]["dice_s"], "1"),
    }
    details = {
        "round_ms_tail_percentile": percentile,
        "round_ms_samples": len(walls),
        "final_dice_s_gap": final["fedgs"]["dice_s"] - final["fedavg"]["dice_s"],
        "wall_sweep_s": statistics.median(s.wall_s for s in sweeps),
        "wall_round_ms_p50": statistics.median(walls),
        "wall_round_ms_tail": nearest_rank(walls, percentile),
        "wall_setup_s": statistics.median(s for s, _ in probes),
        "sweep_s_each": [s.wall_s for s in sweeps],
        "reference_s_each": reference_s,
        "setup_probes": probes,
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = workloads.SMOKE if args.workload == "smoke" else workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = START + args.seconds
    work = ROOT / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(args.seed)
    config = work / "workload.ini"
    config.write_text(render_config(cfg))

    prov = provenance(ROOT, args)
    log("provenance " + json.dumps(prov, sort_keys=True))

    from fedgs_sim import cli

    if args.trace:
        try:
            return traced_run(workload, cfg, cli, config, work, deadline, prov)
        except tracing.TracerError as exc:
            print(f"perfbench: tracer: {exc}", file=sys.stderr)
            return 3

    probes = measure_setup(config)
    sweeps, reference_s = timed_sweeps(cli, config, work, deadline)
    attempted, failed = check_sweeps(workload, cfg, sweeps)
    metrics = details = {}
    if not failed:
        metrics, details = end_to_end(cfg, sweeps, reference_s, probes)
        for name, (value, unit) in metrics.items():
            log(f"{name} = {value!r} {unit}")
    return finish(work, prov, attempted, failed, metrics, details)


def traced_run(workload, cfg, cli, config: Path, work: Path, deadline: float, prov: dict) -> int:
    log("wrapped sites:")
    for site in tracing.wrapped_sites():
        log(f"  {site}")
    # Untraced and traced sweeps alternate, so that a drift in machine speed
    # does not land on one side of trace.overhead_frac.
    tracer = tracing.Tracer()
    untraced: list[Sweep] = []
    traced: list[Sweep] = []
    while not traced or time.perf_counter() + 2.0 * max(s.wall_s for s in traced) <= deadline:
        untraced.append(run_sweep(cli, config, work / f"sweep{len(untraced)}"))
        tracer.install()
        try:
            with tracer.root():
                traced.append(run_sweep(cli, config, work / f"traced{len(traced)}"))
        finally:
            tracer.uninstall()
    sweeps = untraced + traced
    attempted, failed = check_sweeps(workload, cfg, sweeps)
    metrics = details = {}
    if not failed:
        layers = tracer.summary()
        untraced_s = statistics.median(s.wall_s for s in untraced)
        layers["trace.untraced_sweep_s"] = untraced_s
        layers["trace.overhead_frac"] = statistics.median(s.wall_s for s in traced) / untraced_s - 1.0
        tracer.write_spans(work / "spans.csv")
        metrics = {name: (value, metric_unit(name)) for name, value in layers.items()}
        for name, (value, unit) in metrics.items():
            log(f"{name} = {value!r} {unit}")
        details = {"spans_file": str((work / "spans.csv").relative_to(ROOT))}
    return finish(work, prov, attempted, failed, metrics, details)


def metric_unit(name: str) -> str:
    if name.endswith("_us_per_image"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".share", "_frac")):
        return "1"
    return "count"


def finish(work: Path, prov: dict, attempted: int, failed: list[str], metrics: dict, details: dict) -> int:
    for problem in failed:
        log(f"FAILED {problem}")
    log(f"failed_frac = {len(failed) / attempted!r} 1 ({len(failed)} of {attempted} (seed, strategy) runs)")
    for name, value in details.items():
        log(f"{name} = {value!r}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"provenance": prov, "details": details, "problems": failed, **result}, indent=2) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
