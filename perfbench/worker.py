"""Closed-loop client with one connection: runs job decks through quadnet.cli.main.

Usage: python worker.py ROOT INPUTS OUT DECKS SECONDS TRACE KERNEL RESULT.json

INPUTS holds deck-0.json ... deck-<DECKS-1>.json; each deck is read just
before it runs, so the client's own data stay out of the peak RSS and out
of the garbage collector's way.  Deck 0 warms the process up.  The timed
pass then runs whole decks until SECONDS have passed (or the decks run
out).  Only ``cli.main`` is timed.  After each command the reference
kernel named KERNEL runs, in a process of its own (reference.py), and the
command's artifacts are checked.  With TRACE = 0, a fresh
interpreter imports ``quadnet.cli`` after every deck that ends at least
SETUP_EVERY_S after the previous one; those set-up times do not count
toward SECONDS.  With TRACE = 1 the same decks run once more with spans
installed, and the spans are written next to RESULT.json.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from quadnet import cli

import workloads
from reference import Probe
from spans import Tracer

SETUP_EVERY_S = 1.0
SETUP_COMMAND = [sys.executable, "-c", "import quadnet.cli"]
def cold_start() -> float:
    """Wall time, in s, of a fresh interpreter importing quadnet.cli."""
    start = perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run(SETUP_COMMAND, check=True)
    return perf_counter() - start


class Client:
    """Issues commands one after another and keeps every outcome."""

    def __init__(self, out: Path, bounds: dict, probe: Probe):
        self.out = out
        self.probe = probe
        self.bounds = bounds
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, job: dict) -> tuple[float, float]:
        """Run one command, then the reference kernel, then check the artifacts.

        Returns the command's latency and the kernel's run time, in s.
        """
        for name in job["files"]:
            (self.out / name).unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.job = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            code = cli.main(job["argv"])
        except Exception:  # an escaped exception is a failed command, not a crash
            code = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        reference = self.probe.time()
        if code != 0:
            self._fail(job, code if isinstance(code, str) else f"exit code {code}")
            return elapsed, reference
        try:
            problem = workloads.CHECKS[job["check"]](job["expect"], self.out, self.bounds)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable artifact: {exc!r}"
        if problem is not None:
            self._fail(job, problem)
        return elapsed, reference

    def _fail(self, job: dict, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{' '.join(job['argv'][3:])}: {why}")


def timed_pass(client: Client, inputs: Path, decks: range, seconds: float,
               setup: bool = False) -> dict:
    latencies, reference, deck, deck_items = [], [], [], []
    setup_s, setup_deck = [], []
    begin = last_setup = perf_counter()
    for d in decks:
        jobs = json.loads((inputs / f"deck-{d}.json").read_text(encoding="utf-8"))
        for job in jobs:
            latency, kernel = client.run(job)
            latencies.append(latency)
            reference.append(kernel)
        deck += [len(deck_items)] * len(jobs)
        deck_items.append(sum(job["items"] for job in jobs))
        if setup and perf_counter() - last_setup >= SETUP_EVERY_S:
            setup_s.append(cold_start())
            setup_deck.append(len(deck_items) - 1)
            last_setup = perf_counter()
        if perf_counter() - begin - sum(setup_s) >= seconds:
            break
    return {"latencies_s": latencies, "reference_s": reference, "deck": deck,
            "deck_items": deck_items, "decks": len(deck_items),
            "setup_s": setup_s, "setup_deck": setup_deck}


def main(argv: list[str]) -> int:
    root, inputs, out, decks, seconds, trace, kernel, result_path = argv
    inputs, decks = Path(inputs), int(decks)
    with Probe(kernel) as probe:
        client = Client(Path(out), workloads.load_bounds(Path(root)), probe)
        timed_pass(client, inputs, range(1), 0.0)
        if trace == "0":
            cold_start()  # warms the file cache; not counted
        timed = timed_pass(client, inputs, range(1, decks), float(seconds), trace == "0")
        result = {**timed,
                  "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if trace == "1":
            tracer = Tracer()
            tracer.install()
            client.tracer = tracer
            traced = timed_pass(client, inputs, range(1, 1 + timed["decks"]), float("inf"))
            tracer.write(Path(result_path).with_suffix(".spans.npz"))
            result["traced"] = {**traced, "spans": len(tracer.start),
                                "layers": tracer.table()}
    result.update(attempted=client.attempted, failed=client.failed,
                  failures=client.failures)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
