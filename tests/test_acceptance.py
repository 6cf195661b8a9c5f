"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion appears as a
single PASSED/FAILED line.  Expected numbers are frozen from independent
derivations (closed-form algebra and brute-force fitting); QUOTED_* constants
are reference values recorded at lower precision alongside the packaged
measured datasets and carry correspondingly looser tolerances.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest

from quadnet import (
    ALL_BIPARTITIONS,
    CRITERION_LABELS,
    ExperimentConfig,
    GainVector,
    TraceConfig,
    apply,
    beam_splitter,
    closed_form,
    combination_forms,
    combination_variance,
    commutation_matrix,
    consistency_report,
    criterion_totals,
    db_rel_snl,
    emit_trace,
    estimate_variance,
    evaluate_criteria,
    fit_uniform_efficiency,
    full_inseparability,
    is_physical,
    is_symplectic,
    loss_channel,
    numeric_optimal_gain,
    packaged_dataset,
    packaged_network,
    parse_network,
    phase_shift,
    results_from_totals,
    sample_quadratures,
    serialize_network,
    simulate_experiment,
    squeezer,
    uncovered_bipartitions,
    vacuum,
    variance_sum_bound,
)
from quadnet.criteria import _family

# --- frozen expectations -----------------------------------------------------

# Criterion 1: quoted squeezing level of the gain-free differences at r = 0.402.
QUOTED_DIFF_DB = -3.49
FROZEN_DIFF_DB = -3.4917276345  # 10 log10(e^{-2r} / 2 / 0.5)

# Criterion 3: analytic optimal gains (cluster outer, cluster inner, ghz common).
ANALYTIC_GAINS = {
    0.1: (0.2694696510080523, 0.21898659486846644, 0.197375320224904),
    0.402: (0.7496627771889791, 0.9991011433239109, 0.6662670550794461),
    1.0: (0.9757273379195325, 1.8611066502067082, 0.9640275800758169),
    2.0: (0.999552766506171, 1.997318997105609, 0.999329299739067),
}
QUOTED_GAINS_R0402 = (0.7496, 0.9990, 0.6662)

# Criterion 4: hand-derived separability bounds, per family/criterion, over the
# seven bipartitions in canonical order 1|234, 134|2, 124|3, 123|4, 12|34,
# 13|24, 14|23.  Derived from the per-mode commutators of each conjugate pair.
BIPARTITION_ORDER = ("1|234", "134|2", "124|3", "123|4", "12|34", "13|24", "14|23")
GOLDEN_BOUNDS = {
    ("cluster", "I"): (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0),
    ("cluster", "II"): (0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0),
    ("cluster", "III"): (0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0),
    ("ghz", "I"): (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0),
    ("ghz", "II"): (0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0),
    ("ghz", "III"): (0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0),
}

# Criterion 6: quoted ideal criterion sums at r = 0.402 with optimal gains,
# and their exact closed-form values (the ghz quote is rounded one ulp up).
QUOTED_SUM_CLUSTER_I = 0.6711
QUOTED_SUM_GHZ_I = 0.5967
FROZEN_SUMS = {
    "cluster": (0.6711017221, 0.6711017221, 1.2865883500),
    "ghz": (0.5966242307, 0.5966242307, 0.5966242307),
}

# Criterion 8: seeds verified once and frozen; the sampler is deterministic.
MC_MASTER_SEED = 20260816
TRACE_SEED = 20260816


def _pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {message}")


def test_criterion_1_difference_squeezing_level():
    """Simulated Y1-Y2 at r = 0.402 sits at -3.49 dB (±0.01) below shot noise."""
    gains = GainVector.optimal("cluster", 0.402)
    state = simulate_experiment(ExperimentConfig(target="cluster", r=0.402, gains=gains))
    form = combination_forms("cluster", gains)[0]
    db = db_rel_snl(combination_variance(state, form), form)
    assert db == pytest.approx(QUOTED_DIFF_DB, abs=0.01)
    assert db == pytest.approx(FROZEN_DIFF_DB, abs=1e-9)
    _pass(1, f"Y1-Y2 at r=0.402 gives {db:.4f} dB (quoted {QUOTED_DIFF_DB} ± 0.01)")


def test_criterion_2_simulation_matches_closed_forms():
    """Network elaboration reproduces all closed-form variances to 1e-9, <1 s."""
    start = time.perf_counter()
    worst = 0.0
    for family in ("cluster", "ghz"):
        for r in (0.0, 0.25, 0.402, 0.75, 1.5):
            optimal = GainVector.optimal(family, r)
            for gains in (GainVector(0, 0, 0, 0), optimal, optimal.scaled(1.3)):
                state = simulate_experiment(
                    ExperimentConfig(target=family, r=r, gains=gains)
                )
                expected = closed_form(family, r, gains)
                for form, value in zip(combination_forms(family, gains), expected):
                    worst = max(worst, abs(combination_variance(state, form) - value))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    _pass(2, f"30 configurations, worst |simulated - analytic| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_3_numeric_gains_match_analytic():
    """Parabolic gain minimization agrees with the analytic formulas to 1e-8."""
    def objectives(r):
        def outer(g):
            return closed_form("cluster", r, GainVector(g, 1, 1, g))[4]

        def inner(g):
            return closed_form("cluster", r, GainVector(1, g, g, 1))[2]

        def ghz(g):
            return closed_form("ghz", r, GainVector(g, g, g, g))[0]

        return (outer, inner, ghz)

    for r, expected in ANALYTIC_GAINS.items():
        numeric = tuple(numeric_optimal_gain(f) for f in objectives(r))
        analytic_cluster = GainVector.optimal("cluster", r)
        analytic = (analytic_cluster.g1, analytic_cluster.g2, GainVector.optimal("ghz", r).g1)
        for num, ana, frozen in zip(numeric, analytic, expected):
            assert abs(num - ana) <= 1e-8
            assert ana == pytest.approx(frozen, abs=1e-12)
    for got, quoted in zip(ANALYTIC_GAINS[0.402], QUOTED_GAINS_R0402):
        assert got == pytest.approx(quoted, abs=5e-4)
    _pass(3, "numeric gains match analytic at r ∈ {0.1, 0.402, 1, 2} (≤1e-8)")


def test_criterion_4_bound_table_matches_hand_derivation():
    """All 42 separability bounds equal the hand-derived table (and the CSV)."""
    for family in ("cluster", "ghz"):
        for gains in (GainVector.unit(), GainVector(0.3, 0.7, 1.1, 1.9)):
            forms = combination_forms(family, gains)
            for label, (u, v) in zip(CRITERION_LABELS, _family(family).pairs):
                expected = GOLDEN_BOUNDS[(family, label)]
                for bp, want in zip(ALL_BIPARTITIONS, expected):
                    bound = variance_sum_bound(forms[u], forms[v], bp.side_a, bp.side_b)
                    assert bound == pytest.approx(want, abs=1e-12)
    csv_text = (resources.files("quadnet") / "data" / "bound_table.csv").read_text()
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    assert len(rows) == 42
    for family, criterion, bp_label, bound in rows:
        idx = BIPARTITION_ORDER.index(bp_label)
        assert float(bound) == GOLDEN_BOUNDS[(family, criterion)][idx]
    _pass(4, "42 bipartition bounds match the hand-derived golden table")


def test_criterion_5_measured_sums_exclude_every_bipartition():
    """Packaged measured criterion sums jointly rule out all seven bipartitions."""
    for family in ("cluster", "ghz"):
        dataset = packaged_dataset(family)
        results = results_from_totals(
            family,
            dataset.sum_values,
            dataset.sum_uncertainties,
        )
        assert full_inseparability(results)
        assert uncovered_bipartitions(results) == ()
    _pass(5, "measured sums cover all 7 bipartitions for both families")


def test_criterion_6_ideal_sums_match_quoted_values():
    """Ideal optimal sums at r = 0.402 reproduce the quoted I values (±1e-3)."""
    totals = {}
    for family in ("cluster", "ghz"):
        gains = GainVector.optimal(family, 0.402)
        state = simulate_experiment(ExperimentConfig(target=family, r=0.402, gains=gains))
        variances = [combination_variance(state, f) for f in combination_forms(family, gains)]
        sums = criterion_totals(family, variances)
        totals[family] = sums
        for got, frozen in zip(sums, FROZEN_SUMS[family]):
            assert got == pytest.approx(frozen, abs=1e-9)
        assert full_inseparability(evaluate_criteria(family, variances))
    assert totals["cluster"][0] == pytest.approx(QUOTED_SUM_CLUSTER_I, abs=1e-3)
    assert totals["ghz"][0] == pytest.approx(QUOTED_SUM_GHZ_I, abs=1e-3)
    _pass(6, f"I_cluster = {totals['cluster'][0]:.4f}, I_ghz = {totals['ghz'][0]:.4f}")


def test_criterion_7_calibration_fits_measured_data():
    """Uniform-loss co-fit lands within 0.15 dB RMS and reconciles the sums."""
    start = time.perf_counter()
    for family in ("cluster", "ghz"):
        dataset = packaged_dataset(family)
        fit = fit_uniform_efficiency(dataset)
        assert fit.co_fit.converged
        assert fit.co_fit.rms_db <= 0.15
        for rec in fit.reconciliation:
            assert abs(rec.reconciled_sum - rec.measured_sum) <= 0.05
        report = consistency_report(fit)
        assert "unpublished" in report.caveat
        assert "unpublished" in report.to_text()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(7, f"both fits ≤ 0.15 dB RMS with reconciled sums (±0.05) in {elapsed:.2f}s")


def test_criterion_8_monte_carlo_agrees_with_analytics():
    """10 random million-sample estimates land within 1% (and 3σ); traces ±0.1 dB."""
    start = time.perf_counter()
    rng = np.random.default_rng(MC_MASTER_SEED)
    for _ in range(10):
        family = ("cluster", "ghz")[int(rng.integers(2))]
        r = float(rng.uniform(0.1, 1.2))
        etas = tuple(float(e) for e in rng.uniform(0.4, 1.0, size=4))
        gains = GainVector.optimal(family, r).scaled(float(rng.uniform(0.8, 1.2)))
        state = simulate_experiment(
            ExperimentConfig(target=family, r=r, efficiencies=etas, gains=gains)
        )
        form = combination_forms(family, gains)[int(rng.integers(6))]
        analytic = combination_variance(state, form)
        estimate = estimate_variance(
            sample_quadratures(state, 1_000_000, seed=int(rng.integers(2**31))), form
        )
        assert abs(estimate.variance - analytic) <= 0.01 * analytic
        assert abs(estimate.variance - analytic) <= 3.0 * estimate.stderr
    for family in ("cluster", "ghz"):
        gains = GainVector.optimal(family, 0.402)
        state = simulate_experiment(ExperimentConfig(target=family, r=0.402, gains=gains))
        form = combination_forms(family, gains)[0]
        variance = combination_variance(state, form)
        trace = emit_trace(variance, form, TraceConfig(duration=1.0 / 300.0, seed=TRACE_SEED))
        assert float(trace.power_db.mean()) == pytest.approx(
            db_rel_snl(variance, form), abs=0.1
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(8, f"10 million-sample estimates + 2 trace means agree in {elapsed:.2f}s")


def test_criterion_9_structural_properties_hold():
    """Symplectic algebra, physicality, purity, and format round-trips hold."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)

    # Every generator channel is symplectic.
    for n_modes, mode in ((1, 0), (4, 2)):
        for r in (0.0, 0.402, 1.5):
            assert is_symplectic(squeezer(n_modes, mode, r, "X").T)
        for phi in (0.0, 0.7, math.pi):
            assert is_symplectic(phase_shift(n_modes, mode, phi).T)
    for theta in (0.0, 0.3, math.pi / 2):
        assert is_symplectic(beam_splitter(4, 1, 3, theta).T)

    # Passive elements leave the vacuum invariant.
    state = vacuum(4)
    for channel in (
        beam_splitter(4, 0, 1, 0.6),
        phase_shift(4, 2, 1.1),
        beam_splitter(4, 2, 3, math.pi / 2),
    ):
        state = apply(state, channel)
    np.testing.assert_allclose(state.cov, vacuum(4).cov, atol=1e-12)

    # 10^4 random channel applications keep the state physical.
    state = vacuum(2)
    sigma = commutation_matrix(2)
    for _ in range(10_000):
        kind = rng.integers(4)
        if kind == 0:
            channel = squeezer(2, int(rng.integers(2)), float(rng.uniform(0, 1.0)),
                               "XY"[int(rng.integers(2))])
        elif kind == 1:
            channel = phase_shift(2, int(rng.integers(2)), float(rng.uniform(0, 2 * math.pi)))
        elif kind == 2:
            channel = beam_splitter(2, 0, 1, float(rng.uniform(0, math.pi)))
        else:
            channel = loss_channel(2, int(rng.integers(2)), float(rng.uniform(0.2, 1.0)))
        state = apply(state, channel)
        min_eig = float(np.linalg.eigvalsh(state.cov + 0.25j * sigma).min())
        assert min_eig >= -1e-9
    assert is_physical(state)

    # Lossless four-mode outputs are pure: det(cov) = (1/16)^4.
    for family in ("cluster", "ghz"):
        for r in (0.0, 0.402, 1.0):
            pure = simulate_experiment(ExperimentConfig(target=family, r=r))
            assert np.linalg.det(pure.cov) == pytest.approx((1.0 / 16.0) ** 4, rel=1e-9)

    # Network text format round-trips through parse -> serialize -> parse.
    for family in ("cluster", "ghz"):
        spec = packaged_network(family)
        again = parse_network(serialize_network(spec))
        assert again == spec
    lossy = parse_network(
        "mode a\nmode b\nsq a X 0.4\nbs a b 0.7853981633974483\n"
        "loss b 0.85\nout b a\n"
    )
    assert parse_network(serialize_network(lossy)) == lossy

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(9, f"symplectic/physicality/purity/round-trip properties hold in {elapsed:.2f}s")
