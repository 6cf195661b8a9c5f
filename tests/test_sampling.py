"""Tests for Monte-Carlo sampling and noise-trace emulation.

Statistical assertions use 3-sigma intervals (or looser) with fixed
seeds, so they are deterministic in practice.
"""

import math

import numpy as np
import pytest

from quadnet.errors import PhysicalityError
from quadnet.network import ExperimentConfig, simulate_experiment
from quadnet.sampling import (
    NoiseTrace,
    TraceConfig,
    VarianceEstimate,
    emit_trace,
    estimate_variance,
    sample_quadratures,
    trace_to_csv,
)
from quadnet.states import (
    Axis,
    GaussianState,
    QuadForm,
    combination_variance,
    snl,
    variance_db,
    vacuum,
)


def test_sampling_is_deterministic():
    """Identical seeds give identical samples; different seeds differ."""
    st = vacuum(2)
    a = sample_quadratures(st, 100, 1234)
    b = sample_quadratures(st, 100, 1234)
    c = sample_quadratures(st, 100, 4321)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_vacuum_variance_within_one_percent():
    """1e6 vacuum draws give Var(X) within 1% of 0.25 and within 3 stderr."""
    samples = sample_quadratures(vacuum(1), 1_000_000, 2026)
    est = estimate_variance(samples, QuadForm.single_axis(1, Axis.X, {0: 1.0}))
    assert abs(est.variance - 0.25) < 0.01 * 0.25
    assert abs(est.variance - 0.25) < 3.0 * est.stderr


def test_cluster_covariance_reconstruction():
    """1e6 draws reconstruct the cluster covariance within 2% (Frobenius)."""
    st = simulate_experiment(ExperimentConfig("cluster", 0.402))
    samples = sample_quadratures(st, 1_000_000, 7)
    emp = np.cov(samples, rowvar=False)
    rel = np.linalg.norm(emp - st.cov) / np.linalg.norm(st.cov)
    assert rel < 0.02


def test_sampling_respects_mean():
    """Nonzero state means shift the samples."""
    st = GaussianState(1, np.array([3.0, -2.0]), 0.25 * np.eye(2))
    samples = sample_quadratures(st, 200_000, 11)
    assert np.allclose(samples.mean(axis=0), [3.0, -2.0], atol=0.02)


def test_negative_eigenvalue_clamping():
    """Round-off negatives are clamped; genuine negatives raise.  The floor
    scales with the largest eigenvalue, as in is_physical, so r = 10 samples."""
    tiny = GaussianState(1, np.zeros(2), np.diag([-5e-11, 0.25]))
    samples = sample_quadratures(tiny, 1000, 3)
    assert np.allclose(samples[:, 0], 0.0)
    strong = simulate_experiment(ExperimentConfig("ghz", 10.0))
    assert np.linalg.eigvalsh(strong.cov)[0] < -1e-10  # round-off of ~e^20 entries
    assert np.isfinite(sample_quadratures(strong, 1000, 5)).all()
    bad = GaussianState(1, np.zeros(2), np.diag([-1e-8, 0.25]))
    with pytest.raises(PhysicalityError):
        sample_quadratures(bad, 10, 3)
    with pytest.raises(ValueError):
        sample_quadratures(vacuum(1), 0, 3)


def test_estimate_variance_basics():
    """Constant samples give zero variance; inputs are validated."""
    const = np.ones((50, 2))
    est = estimate_variance(const, QuadForm(np.array([1.0, 0.0])))
    assert est == VarianceEstimate(0.0, 0.0, 50)
    with pytest.raises(ValueError):
        estimate_variance(np.ones((50, 4)), QuadForm(np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        estimate_variance(np.ones((1, 2)), QuadForm(np.array([1.0, 0.0])))


def test_estimate_matches_analytic_for_random_states():
    """Estimates agree with combination_variance within 3 stderr."""
    rng = np.random.default_rng(99)
    st = simulate_experiment(ExperimentConfig("ghz", 0.6))
    for k in range(5):
        coeffs = rng.uniform(-1.5, 1.5, size=8)
        if not np.any(coeffs):
            coeffs[0] = 1.0
        form = QuadForm(coeffs)
        samples = sample_quadratures(st, 200_000, 500 + k)
        est = estimate_variance(samples, form)
        assert abs(est.variance - combination_variance(st, form)) < 3.0 * est.stderr


def test_trace_config_validation():
    """Bandwidth ordering, duration, block size, and seed are checked."""
    with pytest.raises(ValueError):
        TraceConfig(duration=0.0, seed=1)
    with pytest.raises(ValueError):
        TraceConfig(duration=1e-3, seed=1, vbw=60e3)  # vbw > rbw
    with pytest.raises(ValueError):
        TraceConfig(duration=1e-3, seed=1, samples_per_point=1)
    with pytest.raises(ValueError):
        TraceConfig(duration=1e-3, seed=-1)
    cfg = TraceConfig(duration=1e-3, seed=1)
    assert cfg.n_points == 30  # 1 ms at one point per 1/30 kHz
    assert cfg.dt == pytest.approx(1.0 / 30e3)


def test_trace_point_grid():
    """Point count is round(duration * rbw) with 1/rbw spacing."""
    cfg = TraceConfig(duration=2e-3, seed=5, samples_per_point=10, rbw=10e3, vbw=1e3)
    trace = emit_trace(vacuum(1), QuadForm.single_axis(1, Axis.X, {0: 1.0}), cfg)
    assert len(trace.times) == 20
    assert np.allclose(np.diff(trace.times), 1e-4)


def test_vacuum_trace_mean_near_zero():
    """A vacuum trace averages 0 dB within 0.1."""
    cfg = TraceConfig(duration=100 / 30e3, seed=8, samples_per_point=10_000)
    trace = emit_trace(vacuum(4), QuadForm.single_axis(4, Axis.Y, {0: 1, 1: -1}), cfg)
    assert len(trace.power_db) == 100
    assert abs(trace.power_db.mean()) < 0.1
    assert abs(trace.snl_reference_db.mean()) < 0.1


def test_ideal_cluster_trace_mean():
    """Ideal cluster Y1-Y2 trace at r = 0.402 averages -3.49 dB within 0.1."""
    st = simulate_experiment(ExperimentConfig("cluster", 0.402))
    form = QuadForm.single_axis(4, Axis.Y, {0: 1.0, 1: -1.0})
    cfg = TraceConfig(duration=100 / 30e3, seed=21, samples_per_point=10_000)
    trace = emit_trace(st, form, cfg)
    assert abs(trace.power_db.mean() - variance_db(st, form)) < 0.1
    assert trace.power_db.mean() == pytest.approx(-3.49, abs=0.1)


def test_lossy_cluster_trace_mean():
    """With eta = 0.456 the same trace averages -1.26 dB within 0.1."""
    st = simulate_experiment(ExperimentConfig("cluster", 0.402, (0.456,) * 4))
    form = QuadForm.single_axis(4, Axis.Y, {0: 1.0, 1: -1.0})
    cfg = TraceConfig(duration=100 / 30e3, seed=22, samples_per_point=10_000)
    trace = emit_trace(st, form, cfg)
    assert trace.power_db.mean() == pytest.approx(-1.26, abs=0.1)


def test_trace_reproducibility():
    """Same config and state give bit-identical traces."""
    st = simulate_experiment(ExperimentConfig("ghz", 0.402))
    form = QuadForm.single_axis(4, Axis.Y, {1: 1.0, 2: -1.0})
    cfg = TraceConfig(duration=20 / 30e3, seed=77, samples_per_point=500)
    a = emit_trace(st, form, cfg)
    b = emit_trace(st, form, cfg)
    assert np.array_equal(a.power_db, b.power_db)
    assert np.array_equal(a.snl_reference_db, b.snl_reference_db)


def test_snl_spread_shrinks_with_block_size():
    """Reference-trace spread scales roughly as 1/sqrt(samples_per_point)."""
    form = QuadForm.single_axis(1, Axis.X, {0: 1.0})
    spreads = {}
    for spp in (100, 10_000):
        cfg = TraceConfig(duration=200 / 30e3, seed=13, samples_per_point=spp,
                          vbw=30e3)  # vbw = rbw: no smoothing, raw spread
        trace = emit_trace(vacuum(1), form, cfg)
        spreads[spp] = trace.snl_reference_db.std()
    assert spreads[10_000] < spreads[100] / 5.0


def test_video_filter_smooths():
    """Lower video bandwidth reduces point-to-point scatter."""
    st = vacuum(2)
    form = QuadForm.single_axis(2, Axis.X, {0: 1.0, 1: 1.0})
    wide = emit_trace(st, form, TraceConfig(duration=100 / 30e3, seed=4,
                                            samples_per_point=200, vbw=30e3))
    narrow = emit_trace(st, form, TraceConfig(duration=100 / 30e3, seed=4,
                                              samples_per_point=200, vbw=30.0))
    assert narrow.power_db.std() < 0.5 * wide.power_db.std()


def test_trace_csv_format():
    """CSV carries config headers, column names, and parseable rows."""
    cfg = TraceConfig(duration=5 / 30e3, seed=3, samples_per_point=50)
    trace = emit_trace(vacuum(1), QuadForm.single_axis(1, Axis.X, {0: 1.0}), cfg)
    text = trace_to_csv(trace)
    lines = text.strip().splitlines()
    assert "# seed = 3" in lines
    assert "# rbw_hz = 30000.0" in lines
    header_idx = lines.index("time_s,power_db,snl_db")
    rows = lines[header_idx + 1:]
    assert len(rows) == 5
    t, p, s = rows[1].split(",")
    assert float(t) == pytest.approx(1 / 30e3)
    float(p), float(s)  # parseable


def test_noise_trace_validation():
    """Mismatched lengths or non-finite values are rejected."""
    cfg = TraceConfig(duration=1e-3, seed=1)
    with pytest.raises(ValueError):
        NoiseTrace(np.zeros(3), np.zeros(2), np.zeros(3), cfg)
    with pytest.raises(ValueError):
        NoiseTrace(np.zeros(2), np.array([np.nan, 0.0]), np.zeros(2), cfg)


def test_trace_rejects_non_positive_signal_variance():
    """A signal variance lost to round-off is named instead of giving -inf dB."""
    state = GaussianState(1, np.zeros(2), np.zeros((2, 2)))
    cfg = TraceConfig(duration=1e-3, seed=1, samples_per_point=10)
    with pytest.raises(ValueError, match="combination X1 has computed variance 0,"):
        emit_trace(state, QuadForm.single_axis(1, Axis.X, {0: 1.0}), cfg)
