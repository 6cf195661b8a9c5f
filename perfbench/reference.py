"""Reference kernels: fixed work that tracks the machine's momentary speed.

Usage: python reference.py {small,bulk,dense}

Reads one request per line on stdin; for each, runs the named kernel
WARMUP + 1 times and writes the run time of the last run, in s, as one line
on stdout.  It ends at the end of its input.  worker.py keeps one such process and asks it for a
timing after every command.  The kernel runs in a process of its own so
that nothing a command leaves behind in the client (cache contents,
allocator thresholds, garbage) changes the kernel's time; run.py divides
command times by it.  The probe idles while a command runs, and its first
run after a long command is up to 40% slower than after a short one (cold
caches); the third run is within 4%, hence WARMUP = 2.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

WARMUP = 2
_SIGMA = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])
_MIX = np.random.default_rng(0).standard_normal((8, 8))
_GRID = np.arange(1001) / 1000.0


def small_kernel() -> float:
    """Work like that of quadnet's short commands, without calling quadnet.

    Small dense maps applied to an 8x8 covariance with Hermitian eigenvalue
    checks, a block of Gaussian draws, a grid of logarithms and some float
    formatting: mostly interpreter and per-call overhead.
    """
    acc = 0.0
    cov = np.eye(8) / 4.0
    for i in range(12):
        T = np.eye(8)
        T[i % 8, i % 8] = math.exp(0.1)
        N = np.zeros((8, 8))
        acc += float(np.max(np.abs(N - N.T))) + float(np.linalg.eigvalsh(N).min())
        cov = T @ cov @ T.T + N
        cov = 0.5 * (cov + cov.T)
        acc += float(np.linalg.eigvalsh(cov + 0.25j * _SIGMA).min())
    draws = np.random.default_rng(1).standard_normal((1500, 8)) @ _MIX.T
    acc += float(np.var(draws @ _MIX[0], ddof=1))
    acc += float((-10.0 * np.log10(_GRID * 0.5 + 1.0 - _GRID)).sum())
    return acc + len(",".join(f"{x:.6f}" for x in cov[0]))


def bulk_kernel() -> float:
    """Work like that of a trace point, without calling quadnet.

    A block of 10^4 Gaussian draws over eight quadratures, mixed by an 8x8
    factor and projected, then the block variance in dB: bulk numpy work,
    which the machine slows differently from interpreter overhead.
    """
    _, vecs = np.linalg.eigh(_MIX @ _MIX.T)
    draws = np.random.default_rng(1).standard_normal((10_000, 8)) @ vecs.T
    return 10.0 * math.log10(float(np.var(draws @ _MIX[0], ddof=1)))


_N = 10  # modes: the middle of netfile's 4 to 16
_SIGMA_N = np.block([[np.zeros((_N, _N)), np.eye(_N)], [-np.eye(_N), np.zeros((_N, _N))]])


def dense_kernel() -> float:
    """Work like that of elaborating a general network, without calling quadnet.

    Eight two-mode mixers as dense 2n x 2n maps on a 10-mode covariance,
    each followed by a Hermitian eigenvalue check of the whole state.
    """
    acc = 0.0
    cov = np.eye(2 * _N) / 4.0
    c, s = math.cos(0.3), math.sin(0.3)
    for k in range(8):
        i, j = k % _N, (3 * k + 1) % _N
        T = np.eye(2 * _N)
        T[np.ix_([i, j], [i, j])] = [[c, s], [-s, c]]
        T[np.ix_([i + _N, j + _N], [i + _N, j + _N])] = [[c, s], [-s, c]]
        T[i] *= math.exp(0.1)
        T[i + _N] *= math.exp(-0.1)
        cov = T @ cov @ T.T
        acc += float(np.linalg.eigvalsh(cov + 0.25j * _SIGMA_N).min())
    return acc


KERNELS = {"small": small_kernel, "bulk": bulk_kernel, "dense": dense_kernel}


class Probe:
    """A reference.py process running one kernel, started and stopped by ``with``."""

    def __init__(self, kind: str):
        self.kind = kind

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen([sys.executable, __file__, self.kind],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def time(self) -> float:
        """One run time of the kernel in the probe process, in s."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main(kind: str) -> int:
    kernel = KERNELS[kind]
    for _ in sys.stdin.buffer:
        for _ in range(WARMUP):
            kernel()
        start = perf_counter()
        kernel()
        sys.stdout.write(f"{perf_counter() - start!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
