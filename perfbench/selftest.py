"""Self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that

* a quick run of every workload, untraced and traced, exits 0 with no
  failed command and prints exactly the metrics BENCHMARK.json names;
* corrupting one expected value in every job makes every command fail,
  so each oracle can fail;
* without the quadnet sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEED = 7


def corrupt(job: dict, index: int) -> None:
    """Move one expected value of a job well outside its oracle's tolerance.

    Traces alternate between a shifted mean and a variance so large that
    the trace's spread falls below its lower bound, as a noiseless trace's
    would; the second leaves the mean check passing.
    """
    expect = job["expect"]
    if job["check"] == "sums":
        expect["sums"][0] += 0.5
    elif job["check"] == "sweep":
        expect["rows"][-1][1] += 0.5
    elif job["check"] == "trace" and index % 2:
        expect["var_db2"] *= 1e6
    elif job["check"] == "trace":
        expect["power_db"] += 1.0
    else:  # fit
        expect["ratios"][0] *= 1.5


def quick_run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, stdout = quick_run(run.ROOT, workload, trace)
            result = json.loads(stdout.splitlines()[-1]) if code == 0 else {}
            if code != 0 or result["failed"] or not result["correct"]:
                problems.append(f"{workload} --trace {trace}: exit {code}, "
                                f"failed {result.get('failed')}")
            elif set(result["metrics"]) != wanted[trace]:
                problems.append(f"{workload} --trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {set(result['metrics']) ^ wanted[trace]}")

        run_dir = HERE / "_out" / f"selftest-{workload}"
        decks = run.generate(workload, SEED, 1.0, run_dir)
        for path in (run_dir / "inputs").glob("deck-*.json"):
            jobs = json.loads(path.read_text(encoding="utf-8"))
            for index, job in enumerate(jobs):
                corrupt(job, index)
            path.write_text(json.dumps(jobs), encoding="utf-8")
        result = run.run_worker(run_dir, workload, decks, 0.0, 0)
        shutil.rmtree(run_dir)
        if not 0 < result["attempted"] == result["failed"]:
            problems.append(f"{workload}: corrupted expectations failed only "
                            f"{result['failed']} of {result['attempted']} commands")

    bare = HERE / "_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, stdout = quick_run(bare, "scan", 0)
    shutil.rmtree(bare)
    if code == 0 or stdout.strip():
        problems.append(f"without sources: exit {code}, stdout {stdout[-200:]!r}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
