"""Monte-Carlo quadrature sampling and spectrum-analyzer-style noise traces.

Traces emulate a swept zero-span measurement: every time point is an
independent block variance of the projected combination, converted to dB
relative to shot noise and passed through a single-pole video filter.
Such a variance over ``n`` draws is exactly ``sigma^2 * chi2(n-1) / (n-1)``,
which traces draw directly from the combination's variance ``sigma^2``;
``sample_quadratures`` and ``estimate_variance`` are the Monte-Carlo oracle.
``ANALYSIS_FREQUENCY_HZ`` is metadata only.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicalityError
from .states import GaussianState, QuadForm, _check_positive, _eigenvalue_floor, snl

#: Sideband frequency of the homodyne measurement, reported in artifacts.
ANALYSIS_FREQUENCY_HZ = 2e6


def sample_quadratures(state: GaussianState, n: int, seed) -> np.ndarray:
    """Draw ``n`` joint quadrature samples, shape (n, 2 * n_modes).

    The covariance is factorized by symmetric eigendecomposition; negative
    eigenvalues above ``is_physical``'s floor ``-max(1e-9, 1e-14 * largest)``
    are clamped to zero, lower ones raise PhysicalityError.  Deterministic
    given ``seed`` (an int, SeedSequence, or Generator).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    evals, evecs = np.linalg.eigh(state.cov)
    floor = _eigenvalue_floor(evals[-1])
    if evals[0] < floor:
        raise PhysicalityError(f"covariance has eigenvalue {evals[0]:.3e} below {floor:.3e}")
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2 * state.n_modes))
    return state.mean + z @ factor.T


@dataclass(frozen=True)
class VarianceEstimate:
    """Sample variance of a combination with its standard error."""

    variance: float
    stderr: float
    n_samples: int


def estimate_variance(samples: np.ndarray, form: QuadForm) -> VarianceEstimate:
    """Unbiased variance of a quadrature combination over a sample block.

    ``stderr = variance * sqrt(2 / (n - 1))``, the Gaussian sampling error
    of an unbiased variance estimator.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != form.coeffs.size:
        raise ValueError("samples must have shape (n, 2 * n_modes) matching the form")
    n = samples.shape[0]
    if n < 2:
        raise ValueError("variance estimation needs at least two samples")
    projected = samples @ form.coeffs
    variance = float(np.var(projected, ddof=1))
    return VarianceEstimate(variance, variance * math.sqrt(2.0 / (n - 1)), n)


@dataclass(frozen=True)
class TraceConfig:
    """Acquisition settings of an emulated noise-power trace.

    ``rbw`` sets the rate of independent variance estimates (one point
    per 1/rbw), ``vbw`` the single-pole video smoothing, ``duration`` the
    trace length in seconds; all three must be finite and positive, and so
    must the point count ``duration * rbw`` before it is rounded.
    """

    duration: float
    seed: int
    samples_per_point: int = 10_000
    rbw: float = 30e3
    vbw: float = 30.0

    def __post_init__(self):
        for name in ("duration", "rbw", "vbw"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.rbw <= 0.0 or self.vbw <= 0.0:
            raise ValueError("bandwidths must be positive")
        if not math.isfinite(self.duration * self.rbw):
            raise ValueError(f"point count duration * rbw must be finite, got "
                             f"{self.duration!r} * {self.rbw!r}")
        if self.vbw > self.rbw:
            raise ValueError("video bandwidth must not exceed resolution bandwidth")
        if self.samples_per_point < 2:
            raise ValueError("need at least two samples per point")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")

    @property
    def n_points(self) -> int:
        return max(1, round(self.duration * self.rbw))

    @property
    def dt(self) -> float:
        return 1.0 / self.rbw


@dataclass(frozen=True, eq=False)
class NoiseTrace:
    """Time series of noise power relative to shot noise, plus its reference."""

    times: np.ndarray
    power_db: np.ndarray
    snl_reference_db: np.ndarray
    config: TraceConfig

    def __post_init__(self):
        for name in ("times", "power_db", "snl_reference_db"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (len(self.times) == len(self.power_db) == len(self.snl_reference_db)):
            raise ValueError("trace arrays must have equal length")
        if not (np.isfinite(self.power_db).all()
                and np.isfinite(self.snl_reference_db).all()):
            raise ValueError("trace values must be finite")


def _video_filter(raw: np.ndarray, alpha: float) -> list[float]:
    """Single-pole smoothing, precharged at the trace's own mean level.

    Precharging emulates a continuously running instrument whose filter
    has settled before the recorded sweep begins; starting cold from the
    first point would correlate the whole trace with one noisy sample.
    The recurrence runs on Python floats, which round as numpy's scalars do.
    """
    out = []
    acc = float(raw.mean())
    for value in raw.tolist():
        acc += alpha * (value - acc)
        out.append(acc)
    return out


def emit_trace(variance: float, form: QuadForm, config: TraceConfig) -> NoiseTrace:
    """Emulate a zero-span noise-power trace of a combination of variance sigma^2.

    Each point is the unbiased variance of ``n = samples_per_point`` draws,
    ``sigma^2 * chi2(n-1) / (n-1)``, in dB relative to shot noise, smoothed by a
    single-pole video filter with coefficient ``1 - exp(-2*pi*vbw*dt)``; the
    reference trace puts the shot-noise level of ``form`` in place of sigma^2.
    Each trace is one chi-square draw from its own child of
    ``SeedSequence(seed)``.  A ``variance`` that is not positive and finite
    raises ValueError.
    """
    _check_positive(variance)
    dof = config.samples_per_point - 1
    reference = snl(form)
    alpha = 1.0 - math.exp(-2.0 * math.pi * config.vbw * config.dt)

    def smoothed(level: float, seed) -> np.ndarray:
        chi2 = np.random.default_rng(seed).chisquare(dof, config.n_points)
        return _video_filter(10.0 * np.log10(level * chi2 / (dof * reference)), alpha)

    signal_seed, ref_seed = np.random.SeedSequence(config.seed).spawn(2)
    power = smoothed(variance, signal_seed)
    snl_ref = smoothed(reference, ref_seed)
    times = np.arange(config.n_points) * config.dt
    return NoiseTrace(times, power, snl_ref, config)


def trace_to_csv(trace: NoiseTrace) -> str:
    """Render a trace as CSV with the configuration in comment headers."""
    cfg = trace.config
    buf = io.StringIO()
    buf.write(f"# duration_s = {cfg.duration!r}\n")
    buf.write(f"# seed = {cfg.seed}\n")
    buf.write(f"# samples_per_point = {cfg.samples_per_point}\n")
    buf.write(f"# rbw_hz = {cfg.rbw!r}\n")
    buf.write(f"# vbw_hz = {cfg.vbw!r}\n")
    buf.write(f"# analysis_frequency_hz = {ANALYSIS_FREQUENCY_HZ!r}\n")
    buf.write("# power unit: dB_rel_SNL\n")
    buf.write("time_s,power_db,snl_db\n")
    buf.writelines(map("{:.9g},{:.6f},{:.6f}\n".format, trace.times.tolist(),
                       trace.power_db.tolist(), trace.snl_reference_db.tolist()))
    return buf.getvalue()
