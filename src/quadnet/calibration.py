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
used.  The fit solves for those implied gains once, with ``infer_sum_gains``,
and ``consistency_report`` of the fit states them next to the co-fit results.

The fit evaluates one table, built once per dataset: per combination, its
ideal variance in its gain in vertex form, from one backward pass over the
lossless experiment network, and the quadratic of its shot-noise level, from
the coefficient template c = c0 + g*c1 (which is all the sum reconciliation
needs).  Everything that does not depend on the efficiency is in the table
too: the fixed-gains branch's six variance-to-SNL ratios, and the extrema of
that ratio in the gain, from which the co-fit takes the gain of the closest
attainable ratio where no gain reaches a measured dB value (the packaged
cluster and GHZ fits need this at 1617 and 1223 grid points).

Both branches are scanned in one array pass over the efficiency grid: one
broadcast solve gives every gain-bearing combination's co-fit gain at every
grid point, and the two objectives come from one stacked array of the lossy
dB values.  Each branch then refines its own minimum.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .criteria import (
    CRITERION_LABELS,
    GainVector,
    _Family,
    _family,
    combination_forms,
    combination_labels,
    criterion_totals,
)
from .errors import FitNonConvergenceError, read_text
from .network import (
    ExperimentConfig,
    _experiment_variances,
    _propagate,
    build_experiment_network,
)
from .states import VACUUM_VARIANCE, _check_squeezing, db_rel_snl

_ETA_GRID_POINTS = 1001  # step 0.001 on [0, 1]
_ETA_GRID = np.arange(_ETA_GRID_POINTS) / float(_ETA_GRID_POINTS - 1)
_FLAT_TOL = 1e-12
_DEGENERATE = 1e-14
# uncertainties that ``synthetic_dataset`` attaches: dB, snu, and of r
_SYNTHETIC_DB_UNCERTAINTY = 0.05
_SYNTHETIC_SUM_UNCERTAINTY = 0.02
_SYNTHETIC_R_UNCERTAINTY = 0.012

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
        if not 10.0 ** (-self.db_below_snl / 10.0) > 0.0:  # up to about 3236 dB
            raise ValueError(f"{self.label}: dB below SNL must leave a variance ratio "
                             f"10^(-dB/10) > 0 in double precision, got {self.db_below_snl!r}")
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


def _shown(value) -> str:
    """``repr(value)``, but an int beyond double range by its digit count."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"an integer of {len(str(abs(value)))} digits"
    return repr(value)


def _text(value) -> str:
    """``str(value)`` for a dataset's text field, but an int beyond double range
    named by its digit count, as :func:`_shown` names it."""
    return _shown(value) if isinstance(value, int) else str(value)


def _number(value, field: str) -> float:
    """A dataset's numeric field, which must be a JSON number (an int or a
    float, not a bool or a string), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"measured dataset field {field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond double range
        raise ValueError(f"measured dataset field {field} is out of range, "
                         f"got {_shown(value)}") from None


def _container(value, field: str | None, kind: type):
    """A dataset's object (``kind`` Mapping) or array (``kind`` list), or the
    whole dataset if ``field`` is None, checked to be that JSON container."""
    if not isinstance(value, kind):
        what = "an object" if kind is Mapping else "an array"
        where = "" if field is None else f" field {field}"
        raise ValueError(f"measured dataset{where} must be {what}, got {_shown(value)}")
    return value


def _objects(data: Mapping, field: str) -> list:
    """The array ``data[field]``, each of whose entries must be an object."""
    return [_container(entry, f"{field}[{i}]", Mapping)
            for i, entry in enumerate(_container(data[field], field, list))]


@dataclass(frozen=True)
class MeasuredDataset:
    """A measured run: squeezing, six component variances, three sums."""

    family: str
    r: float
    r_uncertainty: float
    components: tuple[MeasuredComponent, ...]
    sums: tuple[MeasuredSum, ...]

    def __post_init__(self):
        _check_squeezing(self.r)
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
    def sum_values(self) -> tuple[float, float, float]:
        return tuple(s.value for s in self.sums)  # type: ignore[return-value]

    @property
    def sum_uncertainties(self) -> tuple[float, float, float]:
        return tuple(s.uncertainty for s in self.sums)  # type: ignore[return-value]

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MeasuredDataset":
        data = _container(data, None, Mapping)
        try:
            family = _FAMILY_ALIASES.get(_text(data["family"]).lower())
            if family is None:
                raise ValueError(f"unknown family {_shown(data['family'])}")
            squeezing = _container(data["squeezing"], "squeezing", Mapping)
            components = tuple(
                MeasuredComponent(
                    _text(c["label"]),
                    _number(c["db_below_snl"], f"components[{i}].db_below_snl"),
                    _number(c["uncertainty"], f"components[{i}].uncertainty"),
                )
                for i, c in enumerate(_objects(data, "components"))
            )
            sums = tuple(
                MeasuredSum(_text(s["label"]), _number(s["value"], f"sums[{i}].value"),
                            _number(s["uncertainty"], f"sums[{i}].uncertainty"))
                for i, s in enumerate(_objects(data, "sums"))
            )
            return cls(
                family,
                _number(squeezing["r"], "squeezing.r"),
                _number(squeezing["uncertainty"], "squeezing.uncertainty"),
                components,
                sums,
            )
        except KeyError as exc:
            raise ValueError(f"measured dataset misses field {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "squeezing": {"r": self.r, "uncertainty": self.r_uncertainty},
            "components": [{**vars(c)} for c in self.components],
            "sums": [{**vars(s)} for s in self.sums],
        }


def load_measured_dataset(path: str | Path) -> MeasuredDataset:
    """Read a measured dataset from a JSON file.

    An integer literal beyond the interpreter's digit limit for int conversion
    (Python 3.11 on) raises ValueError naming the file, not Python's advice, and
    so does a file that is not UTF-8 text, naming the byte and its offset.  A
    leading UTF-8 byte-order mark is skipped.
    """
    def parse_int(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"measured dataset {path}: a number in it is too long "
                             f"({len(text.lstrip('-'))} digits)") from None

    return MeasuredDataset.from_json_dict(
        json.loads(read_text(path, "utf-8-sig"), parse_int=parse_int))


# Parsed once per family per process; a MeasuredDataset is immutable, so every
# caller can share it.
@functools.cache
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
    """Evaluate the lossy network and express it as measured observables.

    ``eta`` is either a single detection efficiency applied to all four
    output ports or a sequence of four per-port efficiencies.  The variances
    come from the stacked path ``sweep`` uses, on a stack of one r.
    """
    if isinstance(eta, (int, float)):
        efficiencies = (float(eta),) * 4
    else:
        efficiencies = tuple(float(e) for e in eta)
    config = ExperimentConfig(family, r, efficiencies=efficiencies, gains=gains)
    variances = tuple(_experiment_variances(config, [r])[0].tolist())
    forms = combination_forms(family, config.resolved_gains())
    db = tuple(db_rel_snl(v, f) for v, f in zip(variances, forms))
    return PredictedMeasurement(db, criterion_totals(family, variances))


def synthetic_dataset(
    family: str,
    r: float,
    eta: float | Sequence[float],
    gains: GainVector | str = "optimal",
) -> MeasuredDataset:
    """Package model predictions as a dataset, e.g. for round-trip checks."""
    predicted = predict_measured(family, r, eta, gains)
    components = []
    for label, db in zip(combination_labels(family), predicted.db):
        below = -db
        if -1e-9 < below < 0.0:
            below = 0.0
        components.append(MeasuredComponent(label, below, _SYNTHETIC_DB_UNCERTAINTY))
    sums = tuple(
        MeasuredSum(label, value, _SYNTHETIC_SUM_UNCERTAINTY)
        for label, value in zip(CRITERION_LABELS, predicted.sums)
    )
    return MeasuredDataset(family, r, _SYNTHETIC_R_UNCERTAINTY, tuple(components), sums)


# ---------------------------------------------------------------------------
# the fit's model table

# A combination row is affine in its one (tied) gain, c = c0 + g*c1, so its
# ideal variance V(g) and its shot-noise level S(g) are both quadratic in g.


def _gain_part(fam: _Family) -> np.ndarray:
    """(6, 8) rows c1 of the combinations c = c0 + g*c1, from the template."""
    return np.where(fam.slot_of < 4, fam.factors, 0.0)


def _snl_quadratics(fam: _Family) -> np.ndarray:
    """(6, 3) rows (p, q, u) of S(g) = p g^2 + q g + u = |c0 + g*c1|^2 / 4,
    with c0 and c1 read off the family's coefficient template."""
    c1 = _gain_part(fam)
    c0 = fam.factors - c1
    return VACUUM_VARIANCE * np.stack([c1 * c1, 2.0 * c0 * c1, c0 * c0], axis=1).sum(axis=2)


@dataclass(frozen=True)
class _ModelTable:
    """Everything the fit evaluates, built once per dataset.

    Row i of ``variance`` is (a, m) of combination i's ideal variance in the
    vertex form V(g) = a (g - g0)^2 + m, where g0 is ``ideal[i]``, the analytic
    optimum of the combination's gain (NaN for the gain-free differences, whose
    a is 0).  One checked backward pass over the lossless experiment network
    gives m, the variance at g0, and a, the variance of the gain part c1; the
    form is exact because g0 minimizes V, and both of its terms are
    non-negative, so nothing cancels at strong squeezing.  Row i of ``level``
    is (p, q, u) of the combination's SNL.

    The rest follows from these and does not depend on the efficiency:
    ``optimum``, ``ideal`` with the gain-free columns at 0; ``fixed``, the (6,)
    ratios V/S and levels S at the optima, which is all the fixed-gains branch
    needs; ``bearing``, the columns of the gain-bearing combinations;
    ``solve``, their rows (a, m, p, q, u, g0, t) with S in the offset
    h = g - g0 and t the measured variance ratio 10^(-dB/10); and ``extrema``,
    the offsets h of the extrema of V/S and V/S at them, the candidates where
    no gain reaches t, padded to two with h = 0 at V/S = inf.
    """

    dataset: MeasuredDataset
    variance: np.ndarray
    level: np.ndarray
    ideal: np.ndarray
    optimum: np.ndarray = field(init=False)
    fixed: tuple[np.ndarray, np.ndarray] = field(init=False)
    bearing: np.ndarray = field(init=False)
    solve: np.ndarray = field(init=False)
    extrema: np.ndarray = field(init=False)

    def __post_init__(self):
        bearing = np.flatnonzero(~np.isnan(self.ideal))
        (a, m), (p, q, u) = self.variance[bearing].T, self.level[bearing].T
        g0 = self.ideal[bearing]
        q, u = 2.0 * p * g0 + q, (p * g0 + q) * g0 + u  # S in h
        meas_db = np.asarray(self.dataset.db_values)
        target = [10.0 ** (-meas_db[i] / 10.0) for i in bearing]
        extrema = [_extrema(*row) for row in zip(a, m, p, q, u)]
        object.__setattr__(self, "optimum", np.nan_to_num(self.ideal))
        object.__setattr__(self, "fixed", _ratio_and_level(self, self.optimum))
        object.__setattr__(self, "bearing", bearing)
        object.__setattr__(self, "solve", np.array([a, m, p, q, u, g0, target]))
        object.__setattr__(self, "extrema", np.array(extrema).reshape(-1, 2, 2).swapaxes(0, 1))

    @classmethod
    def build(cls, dataset: MeasuredDataset) -> "_ModelTable":
        fam = _family(dataset.family)
        optimum = GainVector.optimal(dataset.family, dataset.r)
        spec = build_experiment_network(ExperimentConfig(dataset.family, dataset.r))
        rows = np.concatenate([fam.coefficients(optimum), _gain_part(fam)])
        minimum, curvature = _propagate(spec, rows).reshape(2, 6)
        ideal = [optimum.as_tuple()[slots[0]] if slots else math.nan for slots in fam.slots]
        return cls(dataset, np.stack([curvature, minimum], axis=1),
                   _snl_quadratics(fam), np.array(ideal))


def _ratio_and_level(table: _ModelTable, gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each combination's ideal V(g)/S(g) and its SNL S(g) at ``gains`` (..., 6),
    gain-free columns at 0."""
    (a, m), (p, q, u) = table.variance.T, table.level.T
    level = p * gains * gains + q * gains + u
    return (a * (gains - table.optimum) ** 2 + m) / level, level


def _extrema(a, m, p, q, u) -> tuple[list, list]:
    """Offsets h of the extrema of V/S = (a h^2 + m) / (p h^2 + q h + u), which
    do not depend on the efficiency, and V/S at them, padded to two candidates
    with h = 0 at V/S = inf, which is never nearest: with no extremum the
    fallback keeps the optimum."""
    ca = a * q
    cb = 2.0 * (a * u - m * p)
    cc = -m * q
    candidates: list = []
    if abs(ca) < _DEGENERATE:
        if abs(cb) > _DEGENERATE:
            candidates = [-cc / cb]
    else:
        d2 = cb * cb - 4.0 * ca * cc
        if d2 >= 0.0:
            rt = math.sqrt(d2)
            candidates = [(-cb + rt) / (2.0 * ca), (-cb - rt) / (2.0 * ca)]
    with np.errstate(all="ignore"):  # evaluated whether or not a fallback needs them
        ratios = [(a * h * h + m) / (p * h * h + q * h + u) for h in candidates]
    pad = 2 - len(candidates)
    return candidates + [0.0] * pad, ratios + [math.inf] * pad


def _solve_gains(table: _ModelTable, etas: np.ndarray) -> np.ndarray:
    """(n, b) gains of the b gain-bearing combinations at each of the n ``etas``
    whose lossy dB value matches the measured one.

    Solves eta*V(g) + (1-eta)*S(g) = t * S(g), i.e. V(g) = k*S(g) with
    k = (t - 1 + eta)/eta, picking the root nearest the analytic optimum.
    Without a real root the gain of the closest achievable variance-to-SNL
    ratio is used; at eta = 0 the model is gain-insensitive and the optimum is
    kept.  The solve runs in the offset h = g - g0, where V = a h^2 + m has no
    linear term: expanded in g instead, a * g0^2 swamps m at strong squeezing.
    """
    a, m, p, q, u, g0, target = table.solve
    eta = etas[:, None]
    offsets = np.zeros((etas.size, g0.size))
    active = eta > _DEGENERATE
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (target - 1.0 + eta) / eta
        A = a - k * p
        B = -k * q
        C = m - k * u
        linear = active & (np.abs(A) < _DEGENERATE)
        solvable = linear & (np.abs(B) > _DEGENERATE)
        offsets = np.where(solvable, -C / np.where(solvable, B, 1.0), offsets)
        quadratic = active & ~linear
        disc = B * B - 4.0 * A * C
        has_root = quadratic & (disc >= 0.0)
        root = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
        denom = np.where(quadratic, 2.0 * A, 1.0)
        lo = (-B - root) / denom
        hi = (-B + root) / denom
        offsets = np.where(has_root, np.where(np.abs(lo) <= np.abs(hi), lo, hi), offsets)
        # the extremum nearest k, the first of a tie
        h, ratio = table.extrema
        pick = np.argmin(np.abs(ratio - k[..., None]), axis=-1)
        nearest = h[np.arange(g0.size), pick]
        offsets = np.where(quadratic & (disc < 0.0), nearest, offsets)
    return g0 + offsets


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
        return {**vars(self), "gain": None if math.isnan(self.gain) else self.gain}


def infer_sum_gains(dataset: MeasuredDataset) -> tuple[SumReconciliation, ...]:
    """Solve each measured sum for the gain implied by its own components."""
    fam = _family(dataset.family)
    levels = _snl_quadratics(fam)
    ratios = [10.0 ** (-db / 10.0) for db in dataset.db_values]
    out = []
    for criterion, pair, measured in zip(CRITERION_LABELS, fam.pairs, dataset.sum_values):
        limit = max(fam.gain_sup[s] for i in pair for s in fam.slots[i])
        fixed = 0.0
        p_total = 0.0
        u_total = 0.0
        for i in pair:
            p, _, u = levels[i].tolist()
            if fam.slots[i]:
                p_total += p * ratios[i]
                u_total += u * ratios[i]
            else:
                fixed += u * ratios[i]
        # p_total is 0 only where the measured ratios underflow it
        gain_squared = (measured - fixed - u_total) / p_total if p_total else math.inf
        if not math.isfinite(gain_squared):
            raise ValueError(f"sum {criterion}: the gain implied by the measured sum is "
                             f"not finite, g^2 = {gain_squared!r}")
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


def _branch(table: _ModelTable, co_fit: bool,
            etas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A branch's per-combination gains (gain-free columns at 0), ideal ratios
    V(g)/S(g) and SNLs S(g): (6,) rows for fixed gains, which do not depend on
    the efficiency, and (n, 6) rows at each of ``etas`` for the co-fit."""
    if not co_fit:
        return (table.optimum, *table.fixed)
    gains = np.tile(table.optimum, (etas.size, 1))
    gains[:, table.bearing] = _solve_gains(table, etas)
    return (gains, *_ratio_and_level(table, gains))


def _objectives(table: _ModelTable) -> np.ndarray:
    """(2, n) squared dB misses of the fixed-gains and the co-fit branch summed
    over the six combinations, at each efficiency of the grid."""
    eta = _ETA_GRID[:, None]
    cofit_ratio = _branch(table, True, _ETA_GRID)[1]
    fixed_ratio = np.broadcast_to(table.fixed[0], cofit_ratio.shape)
    lossy = eta * np.stack([fixed_ratio, cofit_ratio]) + (1.0 - eta)
    meas_db = np.asarray(table.dataset.db_values)
    return ((-10.0 * np.log10(lossy) - meas_db) ** 2).sum(axis=-1)


def _minimize_eta(objective: np.ndarray) -> float:
    """The grid point of least ``objective``, refined by a parabola through it
    and its neighbors."""
    spread = float(objective.max() - objective.min())
    if spread <= _FLAT_TOL * max(1.0, float(objective.max())):
        raise FitNonConvergenceError(
            "objective is flat over the efficiency grid; "
            "the data do not constrain the efficiency"
        )
    best = int(np.argmin(objective))
    eta = float(_ETA_GRID[best])
    if 0 < best < _ETA_GRID.size - 1:
        f_lo, f_mid, f_hi = (float(objective[j]) for j in (best - 1, best, best + 1))
        denominator = f_lo - 2.0 * f_mid + f_hi
        if denominator > 0.0:
            step = float(_ETA_GRID[1] - _ETA_GRID[0])
            eta += 0.5 * step * (f_lo - f_hi) / denominator
    return min(1.0, max(0.0, eta))


def _finish_branch(table: _ModelTable, co_fit: bool,
                   objective: np.ndarray) -> CalibrationResult:
    """The branch at the efficiency that minimizes its ``objective``, from one
    evaluation of the model there."""
    dataset = table.dataset
    eta = _minimize_eta(objective)
    # rows of (6,) for fixed gains, of (1, 6) for the co-fit
    gains, ratio, level = (row.reshape(-1, 6)[0]
                           for row in _branch(table, co_fit, np.array([eta])))
    ratio = eta * ratio + (1.0 - eta)
    combo_gains = tuple(np.where(np.isnan(table.ideal), math.nan, gains).tolist())
    borne = [[g for g, slots in zip(combo_gains, _family(dataset.family).slots)
              if slot in slots] for slot in range(4)]
    meas_db = np.asarray(dataset.db_values)
    predicted_db = 10.0 * np.log10(ratio)
    residual_db = predicted_db + meas_db
    residual_snu = level * (ratio - 10.0 ** (-meas_db / 10.0))
    sums = criterion_totals(dataset.family, (ratio * level).tolist())
    return CalibrationResult(
        family=dataset.family,
        r=dataset.r,
        mode="co-fit" if co_fit else "fixed-gains",
        eta=eta,
        gains=GainVector(*(sum(b) / len(b) for b in borne)),
        combination_gains=combo_gains,
        predicted=PredictedMeasurement(tuple(predicted_db.tolist()), sums),
        residual_db=tuple(residual_db.tolist()),
        residual_snu=tuple(residual_snu.tolist()),
        rms_db=math.sqrt(float((residual_db * residual_db).sum()) / 6.0),
        sum_residuals=tuple(  # type: ignore[arg-type]
            model - measured for model, measured in zip(sums, dataset.sum_values)),
        converged=True,
    )


def fit_uniform_efficiency(dataset: MeasuredDataset) -> CalibrationFit:
    """Fit one uniform detection efficiency to a measured dataset.

    One array pass evaluates both branches on the 0.001 efficiency grid: the
    fixed-gains ratios once, the co-fit gains in one broadcast solve over the
    grid and the gain-bearing combinations, and both objectives from one
    (2, n, 6) stack.  Each branch then refines its own minimum with a parabola
    through its neighbors, and is evaluated once at it.  The result holds both
    branches and the sum reconciliation.  A flat objective (data that do not
    constrain the efficiency, e.g. zero squeezing), checked for the fixed-gains
    branch first, raises :class:`FitNonConvergenceError`.
    """
    table = _ModelTable.build(dataset)
    fixed, cofit = _objectives(table)
    return CalibrationFit(dataset, _finish_branch(table, False, fixed),
                          _finish_branch(table, True, cofit), infer_sum_gains(dataset))


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
            "rows": [{**vars(row)} for row in self.rows],
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


def consistency_report(fit: CalibrationFit) -> ConsistencyReport:
    """Compare every measured observable with the fit's co-fit model.

    Components are compared in dB relative to the SNL, sums in shot-noise
    units; a row is flagged when its residual exceeds three times the
    quoted uncertainty.  The report also states the fit's sum reconciliation
    (the gains implied by the measured sums), the co-fit's degrees of freedom,
    and the caveat that exact reproduction is impossible with unpublished
    losses and gains.
    """
    dataset, result, reconciliation = fit.dataset, fit.co_fit, fit.reconciliation
    observables = [
        *((c.label, "dB_rel_SNL", -c.db_below_snl, c.uncertainty) for c in dataset.components),
        *((f"sum {s.label}", "snu", s.value, s.uncertainty) for s in dataset.sums),
    ]
    rows = tuple(
        ReportRow(label, unit, measured, model, residual, uncertainty,
                  flagged=abs(residual) > 3.0 * uncertainty)
        for (label, unit, measured, uncertainty), model, residual in zip(
            observables, (*result.predicted.db, *result.predicted.sums),
            (*result.residual_db, *result.sum_residuals)))
    fitted = 1 + sum(1 for slots in _family(dataset.family).slots if slots)
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
        rows=rows,
        reconciliation=reconciliation,
        ideal_gains=GainVector.optimal(dataset.family, dataset.r),
        caveat=_CAVEAT,
        notes=tuple(notes),
    )
