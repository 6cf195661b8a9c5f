"""Loss calibration against measured noise reductions.

Fits a uniform detection efficiency (and, optionally, per-combination
electronic gains) so that the lossy network model reproduces a measured
dataset of six combination variances (in dB below the shot-noise limit)
and three criterion sums, then quantifies what remains irreconcilable.

Two fits are always produced:

* ``fixed-gains`` — gains pinned to the analytic optima for the
  dataset's squeezing parameter; only the efficiency varies.
* ``co-fit`` — for every efficiency on the grid, each gain-bearing
  combination's gain is solved so its modeled dB value matches the
  measured one (root nearest the analytic optimum); the efficiency then
  minimizes the remaining residuals, which live entirely on the
  gain-free combinations.

Because the criterion sums are absolute variances while the dB values
are relative to each combination's own (gain-dependent) shot-noise
level, the sums carry independent information about the gains actually
used.  ``infer_sum_gains`` solves for those implied gains directly; the
consistency report states them next to the fit results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .criteria import (
    CRITERION_LABELS,
    GainVector,
    _Family,
    _family,
    _parabola,
    combination_forms,
    combination_labels,
    criterion_totals,
)
from .errors import FitNonConvergenceError
from .network import ExperimentConfig, simulate_experiment
from .states import VACUUM_VARIANCE, QuadForm, combination_variance, db_rel_snl, snl

_ETA_GRID_POINTS = 1001  # step 0.001 on [0, 1]
_FLAT_TOL = 1e-12
_DEGENERATE = 1e-14

_CAVEAT = (
    "Exact reproduction of the measured values is impossible: the optical "
    "losses and the electronic gains actually used in the measurement are "
    "unpublished. The component-variance fit and the sum reconciliation "
    "therefore imply different gain settings; both are reported instead of "
    "guessing a single set."
)


# ---------------------------------------------------------------------------
# measured dataset


@dataclass(frozen=True)
class MeasuredComponent:
    """One measured combination variance, in dB below the shot-noise limit."""

    label: str
    db_below_snl: float
    uncertainty: float

    def __post_init__(self):
        if not math.isfinite(self.db_below_snl) or self.db_below_snl < 0.0:
            raise ValueError(f"{self.label}: dB below SNL must be finite and >= 0")
        if not math.isfinite(self.uncertainty) or self.uncertainty < 0.0:
            raise ValueError(f"{self.label}: uncertainty must be finite and >= 0")


@dataclass(frozen=True)
class MeasuredSum:
    """One measured criterion sum, in shot-noise units."""

    label: str
    value: float
    uncertainty: float

    def __post_init__(self):
        if self.label not in CRITERION_LABELS:
            raise ValueError(f"unknown criterion label {self.label!r}")
        if not math.isfinite(self.value) or self.value <= 0.0:
            raise ValueError(f"sum {self.label}: value must be finite and > 0")
        if not math.isfinite(self.uncertainty) or self.uncertainty < 0.0:
            raise ValueError(f"sum {self.label}: uncertainty must be finite and >= 0")


_FAMILY_ALIASES = {"cluster": "cluster", "c": "cluster", "ghz": "ghz", "g": "ghz"}


@dataclass(frozen=True)
class MeasuredDataset:
    """A measured run: squeezing, six component variances, three sums."""

    family: str
    r: float
    r_uncertainty: float
    components: tuple[MeasuredComponent, ...]
    sums: tuple[MeasuredSum, ...]

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError("squeezing parameter must be finite and >= 0")
        if not math.isfinite(self.r_uncertainty) or self.r_uncertainty < 0.0:
            raise ValueError("squeezing uncertainty must be finite and >= 0")
        components = tuple(self.components)
        sums = tuple(self.sums)
        expected = combination_labels(self.family)
        got = tuple(c.label for c in components)
        if got != expected:
            raise ValueError(
                f"component labels must be exactly {expected} in order, got {got}"
            )
        if tuple(s.label for s in sums) != CRITERION_LABELS:
            raise ValueError(f"sum labels must be exactly {CRITERION_LABELS} in order")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "sums", sums)

    @property
    def db_values(self) -> tuple[float, ...]:
        return tuple(c.db_below_snl for c in self.components)

    @property
    def db_uncertainties(self) -> tuple[float, ...]:
        return tuple(c.uncertainty for c in self.components)

    @property
    def sum_values(self) -> tuple[float, float, float]:
        return tuple(s.value for s in self.sums)  # type: ignore[return-value]

    @property
    def sum_uncertainties(self) -> tuple[float, float, float]:
        return tuple(s.uncertainty for s in self.sums)  # type: ignore[return-value]

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MeasuredDataset":
        try:
            family = _FAMILY_ALIASES.get(str(data["family"]).lower())
            if family is None:
                raise ValueError(f"unknown family {data['family']!r}")
            squeezing = data["squeezing"]
            components = tuple(
                MeasuredComponent(
                    str(c["label"]), float(c["db_below_snl"]), float(c["uncertainty"])
                )
                for c in data["components"]
            )
            sums = tuple(
                MeasuredSum(str(s["label"]), float(s["value"]), float(s["uncertainty"]))
                for s in data["sums"]
            )
            return cls(
                family,
                float(squeezing["r"]),
                float(squeezing["uncertainty"]),
                components,
                sums,
            )
        except KeyError as exc:
            raise ValueError(f"measured dataset misses field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed measured dataset: {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "squeezing": {"r": self.r, "uncertainty": self.r_uncertainty},
            "components": [
                {
                    "label": c.label,
                    "db_below_snl": c.db_below_snl,
                    "uncertainty": c.uncertainty,
                }
                for c in self.components
            ],
            "sums": [
                {"label": s.label, "value": s.value, "uncertainty": s.uncertainty}
                for s in self.sums
            ],
        }


def load_measured_dataset(path: str | Path) -> MeasuredDataset:
    """Read a measured dataset from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return MeasuredDataset.from_json_dict(json.load(fh))


def packaged_dataset(family: str) -> MeasuredDataset:
    """The measured dataset shipped with the package for ``family``."""
    _family(family)
    text = (
        resources.files("quadnet").joinpath("data", f"measured_{family}.json").read_text()
    )
    return MeasuredDataset.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# forward model


@dataclass(frozen=True)
class PredictedMeasurement:
    """Model output in the measured dataset's terms.

    ``db``: six combination variances in dB relative to their own
    shot-noise level (negative when squeezed below it), canonical order.
    ``sums``: the three criterion sums in shot-noise units.
    """

    db: tuple[float, ...]
    sums: tuple[float, float, float]


def predict_measured(
    family: str,
    r: float,
    eta: float | Sequence[float],
    gains: GainVector | str = "optimal",
) -> PredictedMeasurement:
    """Elaborate the lossy network and express it as measured observables.

    ``eta`` is either a single detection efficiency applied to all four
    output ports or a sequence of four per-port efficiencies.
    """
    if isinstance(eta, (int, float)):
        efficiencies = (float(eta),) * 4
    else:
        efficiencies = tuple(float(e) for e in eta)
    config = ExperimentConfig(family, r, efficiencies=efficiencies, gains=gains)
    state = simulate_experiment(config)
    forms = combination_forms(family, config.resolved_gains())
    variances = tuple(combination_variance(state, f) for f in forms)
    db = tuple(db_rel_snl(v, f) for v, f in zip(variances, forms))
    return PredictedMeasurement(db, criterion_totals(family, variances))


def synthetic_dataset(
    family: str,
    r: float,
    eta: float | Sequence[float],
    gains: GainVector | str = "optimal",
    *,
    db_uncertainty: float = 0.05,
    sum_uncertainty: float = 0.02,
    r_uncertainty: float = 0.012,
) -> MeasuredDataset:
    """Package model predictions as a dataset, e.g. for round-trip checks."""
    predicted = predict_measured(family, r, eta, gains)
    components = []
    for label, db in zip(combination_labels(family), predicted.db):
        below = -db
        if -1e-9 < below < 0.0:
            below = 0.0
        components.append(MeasuredComponent(label, below, db_uncertainty))
    sums = tuple(
        MeasuredSum(label, value, sum_uncertainty)
        for label, value in zip(CRITERION_LABELS, predicted.sums)
    )
    return MeasuredDataset(family, r, r_uncertainty, tuple(components), sums)


# ---------------------------------------------------------------------------
# per-combination quadratic structure

# The ideal variance of each combination and its shot-noise level are both
# quadratic in the combination's (tied) gain; three probes pin them exactly.
# Each combination involves only its own gain slots, so setting all four
# slots to g probes every combination at once.


def _quadratics(fam: _Family, r: float) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Per combination, (a, b, c) of its variance and (p, q, u) of its SNL versus gain."""
    probes = [GainVector(g, g, g, g) for g in (-1.0, 0.0, 1.0)]
    variances = zip(*(fam.closed_form(r, gains) for gains in probes))
    levels = zip(*(
        (VACUUM_VARIANCE * (fam.coefficients(gains) ** 2).sum(axis=1)).tolist()
        for gains in probes))
    return [(_parabola(*v), _parabola(*s)) for v, s in zip(variances, levels)]


def _solve_combination_gains(
    quad_v: tuple[float, float, float],
    quad_s: tuple[float, float, float],
    etas: np.ndarray,
    target_ratio: float,
    ideal_gain: float,
) -> np.ndarray:
    """Per-efficiency gain whose lossy dB value matches the measured one.

    Solves eta*V(g) + (1-eta)*S(g) = target_ratio * S(g), i.e.
    V(g) = k*S(g) with k = (target_ratio - 1 + eta)/eta, picking the root
    nearest the analytic optimum.  Without a real root the gain of the
    closest achievable variance-to-SNL ratio is used; at eta = 0 the model
    is gain-insensitive and the optimum is kept.
    """
    a, b, c = quad_v
    p, q, u = quad_s
    gains = np.full(etas.shape, ideal_gain)
    active = etas > _DEGENERATE
    if not active.any():
        return gains
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (target_ratio - 1.0 + etas) / etas
        A = a - k * p
        B = b - k * q
        C = c - k * u
        linear = active & (np.abs(A) < _DEGENERATE)
        solvable = linear & (np.abs(B) > _DEGENERATE)
        gains = np.where(solvable, -C / np.where(solvable, B, 1.0), gains)
        quadratic = active & ~linear
        disc = B * B - 4.0 * A * C
        has_root = quadratic & (disc >= 0.0)
        root = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
        denom = np.where(quadratic, 2.0 * A, 1.0)
        lo = (-B - root) / denom
        hi = (-B + root) / denom
        nearest = np.where(np.abs(lo - ideal_gain) <= np.abs(hi - ideal_gain), lo, hi)
        gains = np.where(has_root, nearest, gains)
        fallback = quadratic & (disc < 0.0)
    if fallback.any():
        # extrema of V(g)/S(g); independent of k
        ca = a * q - b * p
        cb = 2.0 * (a * u - c * p)
        cc = b * u - c * q
        candidates: list[float] = []
        if abs(ca) < _DEGENERATE:
            if abs(cb) > _DEGENERATE:
                candidates = [-cc / cb]
        else:
            d2 = cb * cb - 4.0 * ca * cc
            if d2 >= 0.0:
                rt = math.sqrt(d2)
                candidates = [(-cb + rt) / (2.0 * ca), (-cb - rt) / (2.0 * ca)]
        if candidates:
            ratios = np.array(
                [(a * g * g + b * g + c) / (p * g * g + q * g + u) for g in candidates]
            )
            miss = np.abs(ratios[None, :] - k[fallback, None])
            best = np.asarray(candidates)[np.argmin(miss, axis=1)]
            gains[fallback] = best
    return gains


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class CalibrationResult:
    """One efficiency fit against a measured dataset.

    ``combination_gains`` lists, per canonical combination, the gain the
    model used (NaN for the gain-free differences).  They are the
    authoritative parameters behind ``predicted``;  ``gains`` summarizes
    them as one vector per gain slot (slots constrained by several
    combinations — possible in the co-fit — carry the mean).
    ``residual_db`` is model minus measured in dB relative to the SNL;
    ``residual_snu`` converts at the model's shot-noise levels, since the
    absolute measured variances depend on the unpublished gains.
    """

    family: str
    r: float
    mode: str
    eta: float
    gains: GainVector
    combination_gains: tuple[float, ...]
    predicted: PredictedMeasurement
    residual_db: tuple[float, ...]
    residual_snu: tuple[float, ...]
    rms_db: float
    sum_residuals: tuple[float, float, float]
    converged: bool

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("fitted efficiency must lie in [0, 1]")
        for name in ("residual_db", "residual_snu", "sum_residuals"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "r": self.r,
            "mode": self.mode,
            "eta": self.eta,
            "gains": list(self.gains.as_tuple()),
            "combination_gains": [
                None if math.isnan(g) else g for g in self.combination_gains
            ],
            "predicted_db_rel_SNL": list(self.predicted.db),
            "predicted_sums_snu": list(self.predicted.sums),
            "residual_db": list(self.residual_db),
            "residual_snu": list(self.residual_snu),
            "rms_db": self.rms_db,
            "sum_residuals_snu": list(self.sum_residuals),
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SumReconciliation:
    """Gain implied by one measured criterion sum and its own components.

    Each sum is an absolute variance, so together with the components'
    dB-below-SNL values it pins the gain-dependent shot-noise level and
    hence the gain actually applied.  ``consistent`` is False when no
    gain in the criterion's attainable range [0, gain_limit) explains the
    sum, i.e. the sum contradicts its own components.
    """

    criterion: str
    gain_squared: float
    gain: float
    gain_limit: float
    reconciled_sum: float
    measured_sum: float
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "gain_squared": self.gain_squared,
            "gain": None if math.isnan(self.gain) else self.gain,
            "gain_limit": self.gain_limit,
            "reconciled_sum": self.reconciled_sum,
            "measured_sum": self.measured_sum,
            "consistent": self.consistent,
        }


def infer_sum_gains(dataset: MeasuredDataset) -> tuple[SumReconciliation, ...]:
    """Solve each measured sum for the gain implied by its own components."""
    fam = _family(dataset.family)
    quadratics = _quadratics(fam, dataset.r)
    ratios = [10.0 ** (-db / 10.0) for db in dataset.db_values]
    out = []
    for criterion, pair, measured in zip(CRITERION_LABELS, fam.pairs, dataset.sum_values):
        limit = max(fam.gain_sup[s] for i in pair for s in fam.slots[i])
        fixed = 0.0
        p_total = 0.0
        u_total = 0.0
        for i in pair:
            p, _, u = quadratics[i][1]
            if fam.slots[i]:
                p_total += p * ratios[i]
                u_total += u * ratios[i]
            else:
                fixed += u * ratios[i]
        gain_squared = (measured - fixed - u_total) / p_total
        if gain_squared >= 0.0:
            gain = math.sqrt(gain_squared)
            consistent = gain < limit
            reconciled = fixed + u_total + p_total * gain_squared
        else:
            gain = math.nan
            consistent = False
            # closest attainable value, reached at zero gain
            reconciled = fixed + u_total
        out.append(
            SumReconciliation(
                criterion, gain_squared, gain, limit, reconciled, measured, consistent
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class CalibrationFit:
    """Both efficiency fits plus the gain values implied by the sums."""

    dataset: MeasuredDataset
    fixed_gains: CalibrationResult
    co_fit: CalibrationResult
    reconciliation: tuple[SumReconciliation, ...]

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset.to_json_dict(),
            "fixed_gains": self.fixed_gains.to_json_dict(),
            "co_fit": self.co_fit.to_json_dict(),
            "sum_reconciliation": [r.to_json_dict() for r in self.reconciliation],
            "caveat": _CAVEAT,
        }


def _eta_grid() -> np.ndarray:
    return np.arange(_ETA_GRID_POINTS) / float(_ETA_GRID_POINTS - 1)


def _branch_objective(
    dataset: MeasuredDataset, etas: np.ndarray, co_fit: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Squared dB residual sums and per-combination gains over the grid."""
    fam = _family(dataset.family)
    ideal = fam.optimal(dataset.r).as_tuple()
    meas_db = np.asarray(dataset.db_values)
    model_ratio = np.empty((etas.size, 6))
    combo_gains = np.full((etas.size, 6), math.nan)
    for i, (quad_v, quad_s) in enumerate(_quadratics(fam, dataset.r)):
        g = np.zeros(etas.shape)
        if fam.slots[i]:
            ideal_gain = ideal[fam.slots[i][0]]
            if co_fit:
                target = 10.0 ** (-meas_db[i] / 10.0)
                g = _solve_combination_gains(quad_v, quad_s, etas, target, ideal_gain)
            else:
                g = np.full(etas.shape, ideal_gain)
            combo_gains[:, i] = g
        a, b, c = quad_v
        p, q, u = quad_s
        ratio = (a * g * g + b * g + c) / (p * g * g + q * g + u)
        model_ratio[:, i] = etas * ratio + (1.0 - etas)
    model_db = -10.0 * np.log10(model_ratio)
    objective = ((model_db - meas_db[None, :]) ** 2).sum(axis=1)
    return objective, combo_gains


def _minimize_eta(dataset: MeasuredDataset, co_fit: bool) -> float:
    etas = _eta_grid()
    objective, _ = _branch_objective(dataset, etas, co_fit)
    spread = float(objective.max() - objective.min())
    if spread <= _FLAT_TOL * max(1.0, float(objective.max())):
        raise FitNonConvergenceError(
            "objective is flat over the efficiency grid; "
            "the data do not constrain the efficiency"
        )
    best = int(np.argmin(objective))
    eta = float(etas[best])
    if 0 < best < etas.size - 1:
        f_lo, f_mid, f_hi = (float(objective[j]) for j in (best - 1, best, best + 1))
        denominator = f_lo - 2.0 * f_mid + f_hi
        if denominator > 0.0:
            step = float(etas[1] - etas[0])
            eta += 0.5 * step * (f_lo - f_hi) / denominator
    return min(1.0, max(0.0, eta))


def _finish_branch(dataset: MeasuredDataset, eta: float, co_fit: bool) -> CalibrationResult:
    family, r = dataset.family, dataset.r
    fam = _family(family)
    single = np.array([eta])
    _, combo_gains_grid = _branch_objective(dataset, single, co_fit)
    combo_gains = tuple(float(g) for g in combo_gains_grid[0])
    meas_db = dataset.db_values
    slot_means = []
    for slot in range(4):
        borne = [combo_gains[i] for i, slots in enumerate(fam.slots) if slot in slots]
        slot_means.append(sum(borne) / len(borne))

    predicted_db = []
    residual_db = []
    residual_snu = []
    variances = []
    for i in range(6):
        g = combo_gains[i] if fam.slots[i] else 0.0
        gains = GainVector(g, g, g, g)
        variance = fam.closed_form(r, gains)[i]
        level = snl(QuadForm(fam.coefficients(gains)[i]))
        lossy = eta * variance + (1.0 - eta) * level
        model_db = 10.0 * math.log10(lossy / level)
        predicted_db.append(model_db)
        residual_db.append(model_db + meas_db[i])
        residual_snu.append(lossy - level * 10.0 ** (-meas_db[i] / 10.0))
        variances.append(lossy)
    sums = criterion_totals(family, variances)
    predicted = PredictedMeasurement(tuple(predicted_db), sums)
    rms = math.sqrt(sum(d * d for d in residual_db) / 6.0)
    sum_residuals = tuple(
        model - measured for model, measured in zip(sums, dataset.sum_values)
    )
    return CalibrationResult(
        family=family,
        r=r,
        mode="co-fit" if co_fit else "fixed-gains",
        eta=eta,
        gains=GainVector(*slot_means),
        combination_gains=combo_gains,
        predicted=predicted,
        residual_db=tuple(residual_db),
        residual_snu=tuple(residual_snu),
        rms_db=rms,
        sum_residuals=sum_residuals,  # type: ignore[arg-type]
        converged=True,
    )


def fit_uniform_efficiency(dataset: MeasuredDataset) -> CalibrationFit:
    """Fit one uniform detection efficiency to a measured dataset.

    Scans the efficiency on a 0.001 grid, refines the minimum with a
    parabola through its neighbors, and reports both the fixed-gains and
    the co-fit branches together with the sum reconciliation.  A flat
    objective (data that do not constrain the efficiency, e.g. zero
    squeezing) raises :class:`FitNonConvergenceError`.
    """
    fixed = _finish_branch(dataset, _minimize_eta(dataset, co_fit=False), co_fit=False)
    cofit = _finish_branch(dataset, _minimize_eta(dataset, co_fit=True), co_fit=True)
    return CalibrationFit(dataset, fixed, cofit, infer_sum_gains(dataset))


# ---------------------------------------------------------------------------
# consistency report


@dataclass(frozen=True)
class ReportRow:
    """One observable compared between measurement and model."""

    label: str
    unit: str
    measured: float
    model: float
    residual: float
    uncertainty: float
    flagged: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """Tabulated measurement-versus-model comparison for one fit."""

    family: str
    mode: str
    eta: float
    rows: tuple[ReportRow, ...]
    reconciliation: tuple[SumReconciliation, ...]
    ideal_gains: GainVector
    caveat: str
    notes: tuple[str, ...]

    @property
    def flagged_rows(self) -> tuple[ReportRow, ...]:
        return tuple(row for row in self.rows if row.flagged)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "mode": self.mode,
            "eta": self.eta,
            "rows": [
                {
                    "label": row.label,
                    "unit": row.unit,
                    "measured": row.measured,
                    "model": row.model,
                    "residual": row.residual,
                    "uncertainty": row.uncertainty,
                    "flagged": row.flagged,
                }
                for row in self.rows
            ],
            "sum_reconciliation": [r.to_json_dict() for r in self.reconciliation],
            "ideal_gains": list(self.ideal_gains.as_tuple()),
            "caveat": self.caveat,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [
            f"consistency report: family={self.family} mode={self.mode} "
            f"eta={self.eta:.4f}",
            "",
            f"{'observable':<22} {'unit':<10} {'measured':>10} {'model':>10} "
            f"{'residual':>10} {'3*unc':>8} flag",
        ]
        for row in self.rows:
            flag = "FLAG" if row.flagged else "ok"
            lines.append(
                f"{row.label:<22} {row.unit:<10} {row.measured:>10.4f} "
                f"{row.model:>10.4f} {row.residual:>+10.4f} "
                f"{3.0 * row.uncertainty:>8.4f} {flag}"
            )
        lines.append("")
        lines.append("gains implied by the measured sums (vs. analytic optima):")
        for rec in self.reconciliation:
            implied = "none" if math.isnan(rec.gain) else f"{rec.gain:.4f}"
            verdict = "consistent" if rec.consistent else "INCONSISTENT"
            lines.append(
                f"  criterion {rec.criterion}: implied gain {implied} "
                f"(attainable range [0, {rec.gain_limit:g})) -> {verdict}"
            )
        lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"caveat: {self.caveat}")
        return "\n".join(lines)


def consistency_report(
    dataset: MeasuredDataset, result: CalibrationResult
) -> ConsistencyReport:
    """Compare every measured observable with the fitted model.

    Components are compared in dB relative to the SNL, sums in shot-noise
    units; a row is flagged when its residual exceeds three times the
    quoted uncertainty.  The report also states the gains implied by the
    measured sums, the model's degrees of freedom, and the caveat that
    exact reproduction is impossible with unpublished losses and gains.
    """
    rows = []
    for component, model_db, residual in zip(
        dataset.components, result.predicted.db, result.residual_db
    ):
        rows.append(
            ReportRow(
                label=component.label,
                unit="dB_rel_SNL",
                measured=-component.db_below_snl,
                model=model_db,
                residual=residual,
                uncertainty=component.uncertainty,
                flagged=abs(residual) > 3.0 * component.uncertainty,
            )
        )
    for measured_sum, model_sum, residual in zip(
        dataset.sums, result.predicted.sums, result.sum_residuals
    ):
        rows.append(
            ReportRow(
                label=f"sum {measured_sum.label}",
                unit="snu",
                measured=measured_sum.value,
                model=model_sum,
                residual=residual,
                uncertainty=measured_sum.uncertainty,
                flagged=abs(residual) > 3.0 * measured_sum.uncertainty,
            )
        )
    reconciliation = infer_sum_gains(dataset)
    n_bearing = sum(1 for slots in _family(dataset.family).slots if slots)
    fitted = 1 if result.mode == "fixed-gains" else 1 + n_bearing
    notes = [
        (
            f"degrees of freedom: {fitted} fitted parameter(s) against 6 component "
            f"variances and 3 sums; per-port efficiencies would add 4 parameters "
            f"and are under-determined by these data."
        ),
    ]
    if any(not rec.consistent for rec in reconciliation):
        bad = ", ".join(rec.criterion for rec in reconciliation if not rec.consistent)
        notes.append(
            f"sum(s) {bad} cannot be reproduced by any gain in the attainable "
            f"range given the measured component variances - inconsistent with "
            f"their own components."
        )
    return ConsistencyReport(
        family=dataset.family,
        mode=result.mode,
        eta=result.eta,
        rows=tuple(rows),
        reconciliation=reconciliation,
        ideal_gains=GainVector.optimal(dataset.family, dataset.r),
        caveat=_CAVEAT,
        notes=tuple(notes),
    )
