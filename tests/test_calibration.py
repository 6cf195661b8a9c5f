"""Tests for the loss-calibration module."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import quadnet.cli as cli
from quadnet.calibration import (
    CalibrationFit,
    MeasuredComponent,
    MeasuredDataset,
    MeasuredSum,
    consistency_report,
    fit_uniform_efficiency,
    infer_sum_gains,
    load_measured_dataset,
    packaged_dataset,
    predict_measured,
    synthetic_dataset,
    _ModelTable,
)
from quadnet import calibration, criteria
from quadnet.criteria import GainVector, closed_form, combination_forms
from quadnet.errors import FitNonConvergenceError
from quadnet.network import (
    ExperimentConfig,
    _propagate,
    build_experiment_network,
    simulate_experiment,
)
from quadnet.states import is_physical, snl

# Frozen expectations from an independent brute-force implementation of the
# same grid-plus-parabola minimization over the analytic variance formulas.
CLUSTER_FIXED_ETA = 0.4585253881
CLUSTER_FIXED_RMS = 0.1000910472
CLUSTER_COFIT_ETA = 0.4464435930
CLUSTER_COFIT_RMS = 0.0173205081
CLUSTER_COFIT_GAINS = {2: 1.3195702922, 3: 1.1270182189, 4: 0.7455831714, 5: 0.6439794794}
GHZ_FIXED_ETA = 0.4523033714
GHZ_FIXED_RMS = 0.0628567802
GHZ_COFIT_ETA = 0.4422505255
GHZ_COFIT_RMS = 0.0384418753
GHZ_COFIT_GAINS = {0: 0.8341774697, 1: 0.6984042494, 2: 0.6887886292}
CLUSTER_INFERRED = (0.5776199970, 0.5736188591, 0.2628662285)
GHZ_INFERRED = (0.4456375364, 0.4423227174, 0.4458203644)
CORRUPTED_GHZ_GAIN = 1.8037167679
YDIFF_DB_ETA0456 = -1.2605423839


def test_predict_ideal_matches_closed_forms():
    gains = GainVector.optimal("cluster", 0.402)
    predicted = predict_measured("cluster", 0.402, 1.0, gains)
    variances = closed_form("cluster", 0.402, gains)
    forms = combination_forms("cluster", gains)
    for db, variance, form in zip(predicted.db, variances, forms):
        assert db == pytest.approx(10.0 * math.log10(variance / snl(form)), abs=1e-9)
    assert predicted.sums[0] == pytest.approx(variances[0] + variances[2], abs=1e-9)


def test_predict_zero_efficiency_is_shot_noise():
    predicted = predict_measured("ghz", 0.75, 0.0)
    gains = GainVector.optimal("ghz", 0.75)
    forms = combination_forms("ghz", gains)
    for db in predicted.db:
        assert db == pytest.approx(0.0, abs=1e-9)
    expected = (
        snl(forms[3]) + snl(forms[0]),
        snl(forms[4]) + snl(forms[1]),
        snl(forms[5]) + snl(forms[2]),
    )
    for got, want in zip(predicted.sums, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_predict_partial_efficiency_frozen_value():
    predicted = predict_measured("cluster", 0.402, 0.456)
    assert predicted.db[0] == pytest.approx(YDIFF_DB_ETA0456, abs=1e-9)
    assert round(predicted.db[0], 2) == -1.26


def test_uniform_loss_mixes_variance_and_shot_noise():
    eta = 0.7
    gains = GainVector(0.4, 0.8, 1.1, 0.6)
    predicted = predict_measured("cluster", 0.55, eta, gains)
    ideal = closed_form("cluster", 0.55, gains)
    forms = combination_forms("cluster", gains)
    for db, variance, form in zip(predicted.db, ideal, forms):
        level = snl(form)
        expected = eta * variance + (1.0 - eta) * level
        assert db == pytest.approx(10.0 * math.log10(expected / level), abs=1e-9)


def test_predict_accepts_per_port_efficiencies():
    uniform = predict_measured("cluster", 0.402, 0.9)
    spread = predict_measured("cluster", 0.402, (0.9, 0.9, 0.9, 0.9))
    assert uniform.db == pytest.approx(spread.db, abs=1e-12)
    mixed = predict_measured("cluster", 0.402, (1.0, 0.8, 1.0, 1.0))
    assert mixed.db != pytest.approx(uniform.db, abs=1e-6)


def test_db_below_snl_not_decreasing_in_efficiency():
    for family, r in (("cluster", 0.25), ("cluster", 0.402), ("ghz", 1.0)):
        below = np.array(
            [
                [-db for db in predict_measured(family, r, eta).db]
                for eta in np.linspace(0.0, 1.0, 21)
            ]
        )
        assert (np.diff(below, axis=0) >= -1e-10).all()


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.7, 0.9])
def test_round_trip_recovers_efficiency(eta):
    dataset = synthetic_dataset("cluster", 0.402, eta)
    fit = fit_uniform_efficiency(dataset)
    assert abs(fit.fixed_gains.eta - eta) <= 1e-3
    assert abs(fit.co_fit.eta - eta) <= 1e-3
    ideal = GainVector.optimal("cluster", 0.402)
    for rec, want in zip(fit.reconciliation, (ideal.g3, ideal.g2, ideal.g1)):
        assert rec.gain == pytest.approx(want, abs=1e-9)
        assert rec.consistent
    for index, want in ((2, ideal.g3), (3, ideal.g2), (4, ideal.g1), (5, ideal.g4)):
        assert fit.co_fit.combination_gains[index] == pytest.approx(want, abs=1e-3)


def test_round_trip_ghz():
    dataset = synthetic_dataset("ghz", 0.402, 0.6)
    fit = fit_uniform_efficiency(dataset)
    assert abs(fit.fixed_gains.eta - 0.6) <= 1e-3
    assert abs(fit.co_fit.eta - 0.6) <= 1e-3
    g = GainVector.optimal("ghz", 0.402).g1
    for rec in fit.reconciliation:
        assert rec.gain == pytest.approx(g, abs=1e-9)


def test_round_trip_non_optimal_gains():
    gains = GainVector(0.5, 0.6, 0.7, 0.5)
    dataset = synthetic_dataset("cluster", 0.402, 0.65, gains)
    fit = fit_uniform_efficiency(dataset)
    assert abs(fit.co_fit.eta - 0.65) <= 1e-3
    for rec, want in zip(fit.reconciliation, (0.7, 0.6, 0.5)):
        assert rec.gain == pytest.approx(want, abs=1e-9)


def test_all_zero_db_fits_zero_efficiency():
    dataset = synthetic_dataset("cluster", 0.402, 0.0)
    assert all(c.db_below_snl == 0.0 for c in dataset.components)
    fit = fit_uniform_efficiency(dataset)
    assert fit.fixed_gains.eta == 0.0
    assert fit.co_fit.eta == 0.0
    assert fit.fixed_gains.converged and fit.co_fit.converged


def test_zero_squeezing_objective_is_flat():
    dataset = synthetic_dataset("cluster", 0.0, 0.5)
    with pytest.raises(FitNonConvergenceError):
        fit_uniform_efficiency(dataset)


def test_measured_cluster_fit_frozen():
    fit = fit_uniform_efficiency(packaged_dataset("cluster"))
    assert fit.fixed_gains.eta == pytest.approx(CLUSTER_FIXED_ETA, abs=1e-6)
    assert fit.fixed_gains.rms_db == pytest.approx(CLUSTER_FIXED_RMS, abs=1e-6)
    assert fit.co_fit.eta == pytest.approx(CLUSTER_COFIT_ETA, abs=1e-6)
    assert fit.co_fit.rms_db == pytest.approx(CLUSTER_COFIT_RMS, abs=1e-6)
    for index, want in CLUSTER_COFIT_GAINS.items():
        assert fit.co_fit.combination_gains[index] == pytest.approx(want, abs=1e-5)
    for rec, want in zip(fit.reconciliation, CLUSTER_INFERRED):
        assert rec.gain == pytest.approx(want, abs=1e-9)
        assert rec.consistent
        assert rec.reconciled_sum == pytest.approx(rec.measured_sum, abs=1e-12)
    # gain-free combinations carry no fitted gain
    assert math.isnan(fit.co_fit.combination_gains[0])
    assert math.isnan(fit.co_fit.combination_gains[1])


def test_measured_ghz_fit_frozen():
    fit = fit_uniform_efficiency(packaged_dataset("ghz"))
    assert fit.fixed_gains.eta == pytest.approx(GHZ_FIXED_ETA, abs=1e-6)
    assert fit.fixed_gains.rms_db == pytest.approx(GHZ_FIXED_RMS, abs=1e-6)
    assert fit.co_fit.eta == pytest.approx(GHZ_COFIT_ETA, abs=1e-6)
    assert fit.co_fit.rms_db == pytest.approx(GHZ_COFIT_RMS, abs=1e-6)
    for index, want in GHZ_COFIT_GAINS.items():
        assert fit.co_fit.combination_gains[index] == pytest.approx(want, abs=1e-5)
    for rec, want in zip(fit.reconciliation, GHZ_INFERRED):
        assert rec.gain == pytest.approx(want, abs=1e-9)
        assert rec.consistent


def test_cofit_residuals_live_on_gain_free_combinations():
    fit = fit_uniform_efficiency(packaged_dataset("cluster"))
    residuals = fit.co_fit.residual_db
    for index in (2, 3, 4, 5):
        assert abs(residuals[index]) < 1e-9
    assert abs(residuals[0]) > 0.01
    assert abs(residuals[1]) > 0.01


def test_corrupted_sum_is_flagged_inconsistent():
    dataset = packaged_dataset("ghz")
    corrupted = dataclasses.replace(
        dataset, sums=(MeasuredSum("I", 2.0, 0.016),) + dataset.sums[1:]
    )
    reconciliation = infer_sum_gains(corrupted)
    assert reconciliation[0].gain == pytest.approx(CORRUPTED_GHZ_GAIN, abs=1e-9)
    assert not reconciliation[0].consistent
    assert reconciliation[1].consistent and reconciliation[2].consistent
    fit = fit_uniform_efficiency(corrupted)
    report = consistency_report(fit)
    assert any("INCONSISTENT" in line for line in report.to_text().splitlines())
    assert any("own components" in note for note in report.notes)


def test_sum_below_attainable_floor_is_flagged():
    dataset = packaged_dataset("cluster")
    tiny = dataclasses.replace(
        dataset, sums=(MeasuredSum("I", 0.05, 0.014),) + dataset.sums[1:]
    )
    reconciliation = infer_sum_gains(tiny)
    assert reconciliation[0].gain_squared < 0.0
    assert math.isnan(reconciliation[0].gain)
    assert not reconciliation[0].consistent
    assert reconciliation[0].reconciled_sum > 0.05


def test_fitted_lossy_states_are_physical():
    for family in ("cluster", "ghz"):
        fit = fit_uniform_efficiency(packaged_dataset(family))
        for result in (fit.fixed_gains, fit.co_fit):
            state = simulate_experiment(
                ExperimentConfig(family, 0.402, efficiencies=(result.eta,) * 4)
            )
            assert is_physical(state)


def test_fit_is_deterministic():
    first = fit_uniform_efficiency(packaged_dataset("cluster"))
    second = fit_uniform_efficiency(packaged_dataset("cluster"))
    assert first.co_fit.eta == second.co_fit.eta
    np.testing.assert_array_equal(
        first.co_fit.combination_gains, second.co_fit.combination_gains
    )
    assert first.fixed_gains.residual_db == second.fixed_gains.residual_db


def test_report_structure_and_flags():
    dataset = packaged_dataset("cluster")
    fit = fit_uniform_efficiency(dataset)
    report = consistency_report(fit)
    assert len(report.rows) == 9
    component_rows = report.rows[:6]
    sum_rows = report.rows[6:]
    assert all(row.unit == "dB_rel_SNL" for row in component_rows)
    assert all(row.unit == "snu" for row in sum_rows)
    # the co-fit matches the component dB values well inside 3 sigma ...
    assert not any(row.flagged for row in component_rows)
    # ... but no single parameter set also reproduces the absolute sums
    assert all(row.flagged for row in sum_rows)
    assert "unpublished" in report.caveat
    assert any("degrees of freedom" in note for note in report.notes)
    text = report.to_text()
    assert "implied gain" in text
    assert "caveat:" in text


def test_report_round_trips_to_json():
    dataset = packaged_dataset("ghz")
    fit = fit_uniform_efficiency(dataset)
    report = consistency_report(fit)
    blob = json.dumps(fit.to_json_dict(), sort_keys=True, allow_nan=False)
    assert "co_fit" in blob
    blob = json.dumps(report.to_json_dict(), sort_keys=True, allow_nan=False)
    assert "reconciliation" in blob


def test_ideal_synthetic_report_is_clean():
    dataset = synthetic_dataset("ghz", 0.402, 0.8)
    fit = fit_uniform_efficiency(dataset)
    report = consistency_report(fit)
    assert not report.flagged_rows
    for row in report.rows:
        # limited by the 0.001-grid parabolic refinement of the efficiency
        assert abs(row.residual) < 1e-4


def test_packaged_datasets_match_recorded_numbers():
    cluster = packaged_dataset("cluster")
    assert cluster.r == 0.402 and cluster.r_uncertainty == 0.012
    assert cluster.db_values == (1.26, 1.20, 1.09, 0.97, 1.19, 1.15)
    assert cluster.sum_values == (0.828, 0.845, 1.936)
    assert cluster.sum_uncertainties == (0.014, 0.018, 0.020)
    ghz = packaged_dataset("ghz")
    assert ghz.db_values == (1.18, 1.08, 1.07, 1.20, 1.16, 1.29)
    assert ghz.sum_values == (0.836, 0.849, 0.840)
    assert packaged_dataset("ghz") is ghz  # parsed once per process


def test_dataset_loading_and_validation(tmp_path):
    dataset = packaged_dataset("cluster")
    path = tmp_path / "measured.json"
    path.write_text(json.dumps(dataset.to_json_dict()))
    assert load_measured_dataset(path) == dataset

    with pytest.raises(ValueError, match="family"):
        MeasuredDataset.from_json_dict({"family": "w", "squeezing": {}})
    with pytest.raises(ValueError, match="misses field"):
        MeasuredDataset.from_json_dict({"family": "cluster"})
    with pytest.raises(ValueError, match="labels"):
        dataclasses.replace(dataset, components=tuple(reversed(dataset.components)))
    with pytest.raises(ValueError, match=">= 0"):
        MeasuredComponent("Y1-Y2", -0.3, 0.05)
    with pytest.raises(ValueError, match="> 0"):
        MeasuredSum("I", 0.0, 0.01)
    with pytest.raises(ValueError, match="criterion"):
        MeasuredSum("IV", 0.5, 0.01)


def test_component_db_must_leave_a_positive_variance_ratio():
    """10^(-dB/10) must stay above 0 in double precision, up to about 3236 dB."""
    assert MeasuredComponent("Y1-Y2", 3230.0, 0.05).db_below_snl == 3230.0
    for db in (3240.0, 1e200):
        with pytest.raises(ValueError, match="Y1-Y2: dB below SNL must leave"):
            MeasuredComponent("Y1-Y2", db, 0.05)


def test_from_json_accepts_short_family_names():
    data = packaged_dataset("ghz").to_json_dict()
    data["family"] = "G"
    assert MeasuredDataset.from_json_dict(data).family == "ghz"


def test_readme_dataset_example_loads():
    """The README's measured-dataset JSON is the packaged cluster dataset."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Measured-dataset JSON", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    dataset = MeasuredDataset.from_json_dict(json.loads(block))
    assert dataset == packaged_dataset("cluster")


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_no_command_path_calls_a_closed_form(family, monkeypatch, tmp_path, capsys):
    """The fit, the sum reconciliation, the report and ``gains`` run on the
    simulator alone: with every family's closed form raising, all succeed."""

    def refuse(r, gains):
        raise AssertionError("a closed form was called")

    for name, fam in criteria._FAMILIES.items():
        monkeypatch.setitem(criteria._FAMILIES, name,
                            dataclasses.replace(fam, closed_form=refuse))
    with pytest.raises(AssertionError, match="closed form"):
        closed_form(family, 0.402, GainVector.unit())
    dataset = packaged_dataset(family)
    fit = fit_uniform_efficiency(dataset)
    assert fit.co_fit.eta == pytest.approx(
        {"cluster": CLUSTER_COFIT_ETA, "ghz": GHZ_COFIT_ETA}[family], abs=1e-9)
    assert len(infer_sum_gains(dataset)) == 3
    consistency_report(fit)
    for r in ("0", "0.402", "10"):
        assert cli.main(["--out", str(tmp_path), "gains", "--family", family, "--r", r]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == len(criteria._family(family).gain_rows())


@pytest.mark.parametrize("family", ["cluster", "ghz"])
@pytest.mark.parametrize("r", [0.402, 2.0, 10.0])
def test_model_table_matches_the_backward_pass(family, r):
    """The table's vertex form V(g) = a (g - g0)^2 + m is the lossless network's
    variance of c0 + g*c1 at any gain, so g0 is the network's minimizer."""
    table = _ModelTable.build(synthetic_dataset(family, r, 1.0))
    fam = criteria._family(family)
    c1 = np.where(fam.slot_of < 4, fam.factors, 0.0)
    spec = build_experiment_network(ExperimentConfig(family, r))
    (a, m), g0 = table.variance.T, np.nan_to_num(table.ideal)
    for g in (-1.0, 0.0, 1.0, 2.0):
        exact = _propagate(spec, fam.factors - c1 + g * c1)
        np.testing.assert_allclose(a * (g - g0) ** 2 + m, exact, rtol=1e-12, atol=0.0)


# --- the co-fit's gain solve --------------------------------------------------


def _solve_combination_gains(vertex, quad_s, etas, target_ratio, ideal_gain):
    """Reference: the per-combination solve that the stacked one replaced, as
    it was.  Gain whose lossy dB value matches the measured one at each of
    ``etas``: V(g) = k*S(g), k = (t - 1 + eta)/eta, root nearest the optimum,
    else the extremum of V/S nearest k, and the optimum at eta = 0."""
    a, m = vertex
    p, q, u = quad_s
    q, u = 2.0 * p * ideal_gain + q, (p * ideal_gain + q) * ideal_gain + u  # S in h
    offsets = np.zeros(etas.shape)
    active = etas > 1e-14
    if not active.any():
        return ideal_gain + offsets
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (target_ratio - 1.0 + etas) / etas
        A = a - k * p
        B = -k * q
        C = m - k * u
        linear = active & (np.abs(A) < 1e-14)
        solvable = linear & (np.abs(B) > 1e-14)
        offsets = np.where(solvable, -C / np.where(solvable, B, 1.0), offsets)
        quadratic = active & ~linear
        disc = B * B - 4.0 * A * C
        has_root = quadratic & (disc >= 0.0)
        root = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
        denom = np.where(quadratic, 2.0 * A, 1.0)
        lo = (-B - root) / denom
        hi = (-B + root) / denom
        offsets = np.where(has_root, np.where(np.abs(lo) <= np.abs(hi), lo, hi), offsets)
        fallback = quadratic & (disc < 0.0)
    if fallback.any():
        ca = a * q
        cb = 2.0 * (a * u - m * p)
        cc = -m * q
        candidates = []
        if abs(ca) < 1e-14:
            if abs(cb) > 1e-14:
                candidates = [-cc / cb]
        else:
            d2 = cb * cb - 4.0 * ca * cc
            if d2 >= 0.0:
                rt = math.sqrt(d2)
                candidates = [(-cb + rt) / (2.0 * ca), (-cb - rt) / (2.0 * ca)]
        if candidates:
            ratios = np.array([(a * h * h + m) / (p * h * h + q * h + u) for h in candidates])
            miss = np.abs(ratios[None, :] - k[fallback, None])
            offsets[fallback] = np.asarray(candidates)[np.argmin(miss, axis=1)]
    return ideal_gain + offsets


def _table_with(family, variance, level, ideal, db):
    """A model table of the given rows, against a dataset of dB values ``db``."""
    dataset = synthetic_dataset(family, 1.0, 0.5)
    components = tuple(dataclasses.replace(c, db_below_snl=float(x))
                       for c, x in zip(dataset.components, db))
    return _ModelTable(dataclasses.replace(dataset, components=components),
                       np.asarray(variance, float), np.asarray(level, float),
                       np.asarray(ideal, float))


def _assert_solve_matches_reference(table, etas):
    got = calibration._solve_gains(table, etas)
    meas_db = np.asarray(table.dataset.db_values)
    assert got.shape == (etas.size, table.bearing.size)
    for j, i in enumerate(table.bearing):
        want = _solve_combination_gains(table.variance[i], table.level[i], etas,
                                        10.0 ** (-meas_db[i] / 10.0), table.ideal[i])
        assert got[:, j].tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_stacked_gain_solve_is_bit_equal_to_the_per_combination_one(family):
    """On random tables, the grid plus off-grid and near-zero efficiencies."""
    rng = np.random.default_rng(7)
    free = np.isnan(_ModelTable.build(packaged_dataset(family)).ideal)
    etas = np.concatenate([calibration._ETA_GRID, rng.uniform(0, 1, 50), [1e-15, 2e-14]])
    for _ in range(40):
        p, u = rng.uniform(0.1, 2.0, (2, 6))
        q = rng.uniform(-1.9, 1.9, 6) * np.sqrt(p * u)  # S > 0
        variance = np.stack([np.where(free, 0.0, rng.uniform(0, 2, 6)),
                             rng.uniform(0.01, 1, 6)], axis=1)
        ideal = np.where(free, np.nan, rng.uniform(-2, 2, 6))
        table = _table_with(family, variance, np.stack([p, q, u], axis=1), ideal,
                            rng.uniform(0, 12, 6))
        _assert_solve_matches_reference(table, etas)


def test_stacked_gain_solve_is_bit_equal_on_its_edge_cases():
    """eta = 0 keeps the optimum; |A| < 1e-14 takes the linear branch, solvable
    or not; without a real root the fallback has 0, 1 or 2 extremum candidates."""
    free = (0.0, 1.0), (0.25, 0.0, 0.25)
    # columns 2-5: linear solvable, linear unsolvable, 1 candidate, 0 candidates;
    # then 2 candidates in column 2 of a second table
    variance = [free[0], free[0], (2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (1.0, 1.0)]
    level = [free[1], free[1], (2.0, 0.5, 2.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0),
             (2.0, 0.0, 2.0)]
    ideal = [np.nan, np.nan, 0.0, 0.0, 0.0, 0.0]
    etas = calibration._ETA_GRID
    table = _table_with("cluster", variance, level, ideal, (0.0, 0.0, 0.0, 0.0, 10.0, 10.0))
    assert np.isfinite(table.extrema[1]).sum(axis=-1).tolist() == [2, 1, 1, 0]
    gains = _assert_solve_matches_reference(table, etas)
    assert gains[0].tolist() == [0.0] * 4  # eta = 0
    assert gains[-1, :2].tolist() == [-2.0, 0.0]  # k = 1: linear, -C/B or none
    assert gains[500, 2:].tolist() == [-0.5, 0.0]  # k < 0: the one extremum, or none
    variance[2], level[2] = (1.0, 0.5), (1.0, 0.5, 1.0)
    table = _table_with("cluster", variance, level, ideal, (0.0, 0.0, 10.0, 0.0, 10.0, 10.0))
    assert np.isfinite(table.extrema[1]).sum(axis=-1).tolist() == [2, 1, 1, 0]
    gains = _assert_solve_matches_reference(table, etas)
    assert set(gains[1:900, 0].tolist()) <= set(table.extrema[0][0].tolist())  # k < 0
