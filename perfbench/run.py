"""quadnet benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan,trace,calibrate,netfile} \
        --seed N --seconds S --trace {0,1}

Inputs are generated here from the seed, then one child process (BLAS
pinned to one thread) runs them through ``quadnet.cli.main`` as a closed
loop with one client; see worker.py.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` replays the same decks with spans and prints the
per-layer metrics.  The last line of stdout is the JSON result; the full
record, with provenance, is written under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

WORKLOADS = ("scan", "trace", "calibrate", "netfile")
# Seconds one deck takes today at the fastest seen, with its kernel requests
# and checks (2-vCPU shared VM, Python 3.11, numpy 2.4).  The run generates
# DECK_HEADROOM times the decks that fill --seconds at this pace, so a program up
# to that much faster still measures for --seconds on fresh inputs.
DECK_SECONDS = {"scan": 1.4, "trace": 1.8, "calibrate": 0.2, "netfile": 0.6}
DECK_HEADROOM = 2.0
# The reference kernel (reference.py) that resembles each workload's commands:
# trace spends nearly all its time drawing and projecting Gaussian blocks,
# netfile in dense maps on up to 32x32 covariances, the others in 8x8 calls
# and the interpreter.  Busy neighbours on a shared host slow these kinds of
# work by different amounts at different times; scaled by the 8x8 kernel, the
# trace and netfile figures tracked the machine worse than unscaled ones.
KERNEL = {"scan": "small", "trace": "bulk", "calibrate": "small", "netfile": "dense"}
# Typical run time of each kernel, in its own process, on that VM.  Command
# times are divided by (median kernel time of their window / this), i.e.
# reported at this nominal machine speed; the unscaled values are kept in the
# record.  The constants only fix the unit: two trees measured on one machine
# are scaled by the same constant, so their ratio does not depend on it.
REFERENCE_NOMINAL_S = {"small": 1.5e-3, "bulk": 3.0e-3, "dense": 1.0e-3}
WINDOW_SAMPLES = 36
CHILD_TIMEOUT_S = 170.0

CHANNELS = ("states.squeezer", "states.beam_splitter", "states.phase_shift",
            "states.loss_channel")
LAYER_FUNCTIONS = (
    "cli.build_parser", "network.parse_network", "network.build_experiment_network",
    "network.elaborate", "states.apply", "states.is_physical",
    "states.combination_variance", "criteria.evaluate_criteria",
    "criteria.combination_forms", "criteria.results_from_totals",
    "calibration.predict_measured", "calibration.fit_uniform_efficiency",
    "calibration.infer_sum_gains", "calibration.consistency_report",
    "calibration.load_measured_dataset", "sampling.emit_trace", "sampling.trace_to_csv",
)
MODULES = ("cli", "network", "states", "criteria", "sampling", "calibration")


def child_env() -> dict:
    return {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(SRC)}


def provenance(args, quadnet) -> dict:
    sha = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tracing": bool(args.trace), "git_sha": sha, "quadnet": quadnet.__version__,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "loop": "closed, 1 client",
    }


def slowdown(timed: dict) -> np.ndarray:
    """Each deck's slowdown: the median reference-kernel time over the nominal one,
    taken over the window of consecutive decks that holds the deck.

    Windows hold at least WINDOW_SAMPLES commands (one deck of scan, three of
    trace or calibrate), since the median of a few samples is noisy and that
    noise widens the tail percentiles.  The median, because a few kernel runs
    are held up several times over (preemption), and more often next to longer
    commands.
    """
    deck = np.asarray(timed["deck"])
    reference = np.asarray(timed["reference_s"])
    sizes = np.bincount(deck, minlength=timed["decks"])
    starts = np.cumsum(sizes) - sizes
    last = max(1, len(deck) // WINDOW_SAMPLES) - 1
    _, window = np.unique(np.minimum(starts // WINDOW_SAMPLES, last), return_inverse=True)
    kernel = [np.median(reference[window[deck] == w]) for w in range(window.max() + 1)]
    return np.asarray(kernel)[window] / timed["nominal_s"]


def nominal_latencies(timed: dict):
    """Command latencies scaled to the nominal machine speed, in s."""
    return np.asarray(timed["latencies_s"]) / slowdown(timed)[timed["deck"]]


def nominal_setup(timed: dict):
    """Cold-start times scaled by the slowdown of the deck each followed, in s."""
    return np.asarray(timed["setup_s"]) / slowdown(timed)[timed["setup_deck"]]


def end_to_end(result: dict) -> dict:
    latencies = nominal_latencies(result)
    p50, p90 = np.percentile(latencies, [50, 90]) * 1e3
    return {
        "setup_s": (float(np.median(nominal_setup(result))), "s"),
        "items_per_s": (sum(result["deck_items"]) / float(latencies.sum()), "items/s"),
        "job_p50_ms": (float(p50), "ms"),
        "job_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def self_ms_scale(traced: dict) -> float:
    """Factor from a traced pass's total self ms to nominal-speed ms per deck."""
    return float(nominal_latencies(traced).sum()) / sum(traced["latencies_s"]) / traced["decks"]


def per_layer(result: dict) -> dict:
    """Per-deck calls and self time of each layer function, errors, tracing cost."""
    traced = result["traced"]
    layers = traced["layers"]
    decks = traced["decks"]
    scale = self_ms_scale(traced)
    groups = {name: (name,) for name in LAYER_FUNCTIONS}
    groups["states.channel"] = CHANNELS
    metrics = {}
    for name, members in groups.items():
        metrics[f"{name}.calls"] = (sum(layers[m]["calls"] for m in members) / decks,
                                    "count")
        metrics[f"{name}.self_ms"] = (sum(layers[m]["self_ms"] for m in members) * scale,
                                      "ms")
    cli_self = sum(v["self_ms"] for k, v in layers.items() if k.startswith("cli."))
    metrics["cli.overhead_ms"] = (cli_self * scale, "ms")
    for module in MODULES:
        metrics[f"{module}.errors"] = (
            sum(v["errors"] for k, v in layers.items() if k.startswith(module + ".")),
            "count")
    metrics["tracing.overhead_ratio"] = (
        float(nominal_latencies(traced).sum() / nominal_latencies(result).sum()), "ratio")
    return metrics


def load_quadnet():
    """Import quadnet from this checkout's src/, or exit 2 when it is missing."""
    if not (SRC / "quadnet" / "__init__.py").is_file():
        print(f"error: no quadnet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadnet

    if Path(quadnet.__file__).resolve().parent != SRC / "quadnet":
        print(f"error: imported quadnet from {quadnet.__file__}", file=sys.stderr)
        sys.exit(2)
    return quadnet


def generate(workload: str, seed: int, seconds: float, run_dir: Path) -> int:
    """Write the seeded decks and their input files under run_dir; return the deck count."""
    load_quadnet()
    import workloads

    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    (run_dir / "out").mkdir()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n_decks = 1 + math.ceil(DECK_HEADROOM * seconds / DECK_SECONDS[workload])
    for d in range(n_decks):
        deck = workloads.DECKS[workload](rng, str(run_dir / "out"), inputs, d)
        (inputs / f"deck-{d}.json").write_text(json.dumps(deck), encoding="utf-8")
    return n_decks


def run_worker(run_dir: Path, workload: str, decks: int, seconds: float, trace: int) -> dict:
    """Run the client process over the generated decks and return its result."""
    result_path = run_dir / "result.json"
    with open(run_dir / "worker.log", "w", encoding="utf-8") as log:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(run_dir / "inputs"),
             str(run_dir / "out"), str(decks), repr(seconds), str(trace), KERNEL[workload],
             str(result_path)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=log,
            check=True, timeout=CHILD_TIMEOUT_S)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for timed in (result, result.get("traced")):
        if timed is not None:
            timed["nominal_s"] = REFERENCE_NOMINAL_S[KERNEL[workload]]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    quadnet = load_quadnet()
    import workloads

    run_dir = HERE / "_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    n_decks = generate(args.workload, args.seed, args.seconds, run_dir)
    result = run_worker(run_dir, args.workload, n_decks, args.seconds, args.trace)
    shutil.rmtree(run_dir / "inputs")
    shutil.rmtree(run_dir / "out")

    metrics = per_layer(result) if args.trace else end_to_end(result)
    failed_frac = result["failed"] / result["attempted"]
    raw = np.asarray(result["latencies_s"])
    machine = statistics.median(result["reference_s"]) / result["nominal_s"]
    record = {
        **provenance(args, quadnet),
        "item": workloads.ITEMS[args.workload],
        "decks_timed": result["decks"], "decks_generated": n_decks - 1,
        "commands_attempted": result["attempted"], "commands_failed": result["failed"],
        "failed_frac": failed_frac, "percentile_samples": len(result["latencies_s"]),
        "setup_samples": len(result["setup_s"]), "failures": result["failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "slowdown_vs_nominal": machine,
        "unscaled": {"items_per_s": sum(result["deck_items"]) / float(raw.sum()),
                     "job_p50_ms": float(np.percentile(raw, 50)) * 1e3,
                     "job_p90_ms": float(np.percentile(raw, 90)) * 1e3,
                     "setup_s": (float(np.median(result["setup_s"]))
                                 if result["setup_s"] else None)},
    }
    if args.trace:
        record["spans"] = result["traced"]["spans"]
        record["functions"] = result["traced"]["layers"]
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {result['decks']} decks, "
          f"{len(result['latencies_s'])} timed commands, item = {record['item']}")
    print(f"machine {machine:.3f}x slower than nominal; times below are scaled to nominal")
    if args.trace:
        scale = self_ms_scale(result["traced"])
        print(f"{'function':<40} {'calls/deck':>11} {'self ms/deck':>13} {'errors':>7}")
        for name, row in sorted(result["traced"]["layers"].items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"{name:<40} {row['calls'] / result['decks']:>11.1f} "
                  f"{row['self_ms'] * scale:>13.3f} {row['errors']:>7}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<40} {failed_frac:>14.6g} ratio")
    for failure in result["failures"]:
        print(f"failed: {failure}")
    print("provenance " + json.dumps({k: record[k] for k in (
        "git_sha", "python", "numpy", "nproc", "blas_threads", "seed", "workload",
        "tracing", "percentile_samples", "setup_samples")}))
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
