"""Correlation combinations, optimal gains, and multipartite separability bounds.

Modes are labeled 1..4 in combination labels and bipartitions, matching
the output ports of the four-mode network; array indices are 0-based.
Two state families are supported, selected by the string ``"cluster"``
or ``"ghz"``; they share the same sources and differ only in
beam-splitter phase settings, so both use four squeezed inputs with a
common squeezing parameter ``r``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .states import VACUUM_VARIANCE, GaussianState, QuadForm, combination_variance

CLUSTER_LABELS = (
    "Y1-Y2",
    "X3-X4",
    "X1+X2+g3*X3",
    "-g2*Y2+Y3+Y4",
    "g1*X1+X2+2*X3",
    "-2*Y2+Y3+g4*Y4",
)

GHZ_LABELS = (
    "X1+X2+g3*X3+g4*X4",
    "g1*X1+X2+X3+g4*X4",
    "g1*X1+g2*X2+X3+X4",
    "Y1-Y2",
    "Y2-Y3",
    "Y3-Y4",
)

CRITERION_LABELS = ("I", "II", "III")


@dataclass(frozen=True)
class GainVector:
    """Electronic gains (g1, g2, g3, g4) applied to the four detector signals."""

    g1: float
    g2: float
    g3: float
    g4: float

    def __post_init__(self):
        if not all(math.isfinite(g) for g in self.as_tuple()):
            raise ValueError(f"gains must be finite, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.g1, self.g2, self.g3, self.g4)

    def scaled(self, factor: float) -> "GainVector":
        return GainVector(*(factor * g for g in self.as_tuple()))

    @classmethod
    def unit(cls) -> "GainVector":
        return cls(1.0, 1.0, 1.0, 1.0)

    @classmethod
    def optimal_cluster(cls, r: float) -> "GainVector":
        """Gains minimizing the four gain-bearing cluster combinations.

        The outer gains (g1, g4) minimize the weight-2 combinations and the
        inner gains (g2, g3) the symmetric three-mode combinations:

            g1 = g4 = (3 e^{4r} - 3) / (3 e^{4r} + 1)
            g2 = g3 = (2 e^{4r} - 2) / (e^{4r} + 3)
        """
        e4 = math.exp(4.0 * r)
        outer = (3.0 * e4 - 3.0) / (3.0 * e4 + 1.0)
        inner = (2.0 * e4 - 2.0) / (e4 + 3.0)
        return cls(outer, inner, inner, outer)

    @classmethod
    def optimal_ghz(cls, r: float) -> "GainVector":
        """Common gain minimizing the GHZ X combinations.

            g = (e^{4r} - 1) / (e^{4r} + 1)
        """
        e4 = math.exp(4.0 * r)
        g = (e4 - 1.0) / (e4 + 1.0)
        return cls(g, g, g, g)

    @classmethod
    def optimal(cls, family: str, r: float) -> "GainVector":
        return _family(family).optimal(r)


def closed_form_cluster(r: float, gains: GainVector) -> tuple[float, ...]:
    """Analytic variances of the six cluster combinations, canonical order.

    Order matches :data:`CLUSTER_LABELS`: the two gain-free differences,
    then the g3, g2, g1, g4 combinations.
    """
    g1, g2, g3, g4 = gains.as_tuple()
    e2, em2 = math.exp(2.0 * r), math.exp(-2.0 * r)
    diff = 0.5 * em2

    def inner(g: float) -> float:
        return ((g * g - 4.0 * g + 4.0) * e2 + (3.0 * g * g + 4.0 * g + 4.0) * em2) / 16.0

    def outer(g: float) -> float:
        return ((3.0 * g * g - 6.0 * g + 3.0) * e2 + (g * g + 6.0 * g + 17.0) * em2) / 16.0

    return (diff, diff, inner(g3), inner(g2), outer(g1), outer(g4))


def closed_form_ghz(r: float, gains: GainVector) -> tuple[float, ...]:
    """Analytic variances of the six GHZ combinations, canonical order.

    Order matches :data:`GHZ_LABELS`: the three X combinations (gain pairs
    (g3, g4), (g1, g4), (g1, g2)), then the three Y differences.
    """
    g1, g2, g3, g4 = gains.as_tuple()
    e2, em2 = math.exp(2.0 * r), math.exp(-2.0 * r)

    def xcombo(ga: float, gb: float) -> float:
        s, d = ga + gb, ga - gb
        return (((2.0 - s) ** 2 + 2.0 * d * d) * e2 + (2.0 + s) ** 2 * em2) / 16.0

    diff = 0.5 * em2
    return (xcombo(g3, g4), xcombo(g1, g4), xcombo(g1, g2), diff, diff, diff)


# One term of a combination label: sign, constant factor, gain slot, axis, mode.
_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?(?:g([1-4])\*)?([XY])([1-4])")


@dataclass(frozen=True)
class _Family:
    """Every fact about one state family.

    The six ``labels`` double as coefficient templates: ``-g2*Y2`` puts
    gain slot 1 with factor -1 on Y of mode 2.  ``pairs`` are the (u, v)
    combination indices of criteria I, II, III; ``gain_sup`` is the sup
    over r of each slot's optimal gain; slots sharing a ``gain_names``
    entry are one common gain in the gains table.
    """

    labels: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    gain_sup: tuple[float, float, float, float]
    gain_names: tuple[str, str, str, str]
    closed_form: Callable[[float, GainVector], tuple[float, ...]]
    optimal: Callable[[float], GainVector]
    #: (6, 8) coefficient factors, the gain slot of each entry (4: a unit
    #: gain for constants), and each combination's gain slots
    factors: np.ndarray = field(init=False, repr=False)
    slot_of: np.ndarray = field(init=False, repr=False)
    slots: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        factors = np.zeros((6, 8))
        slot_of = np.full((6, 8), 4)
        for i, label in enumerate(self.labels):
            for sign, factor, slot, axis, mode in _TERM.findall(label):
                k = int(mode) - 1 + (4 if axis == "Y" else 0)
                factors[i, k] = float(sign + (factor or "1"))
                if slot:
                    slot_of[i, k] = int(slot) - 1
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "slot_of", slot_of)
        object.__setattr__(self, "slots", tuple(
            tuple(row[row < 4].tolist()) for row in slot_of))

    def coefficients(self, gains: GainVector) -> np.ndarray:
        """(6, 8) coefficient vectors of the combinations at these gains."""
        return self.factors * np.array((*gains.as_tuple(), 1.0))[self.slot_of]

    def gain_rows(self) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
        """(name, first combination bearing it, its slots) per named gain."""
        rows = []
        for name in dict.fromkeys(self.gain_names):
            named = [tuple(s for s in slots if self.gain_names[s] == name)
                     for slots in self.slots]
            index = next(i for i, slots in enumerate(named) if slots)
            rows.append((name, index, named[index]))
        return tuple(rows)


_FAMILIES = {
    "cluster": _Family(
        labels=CLUSTER_LABELS,
        pairs=((0, 2), (1, 3), (4, 5)),
        gain_sup=(1.0, 2.0, 2.0, 1.0),
        gain_names=("g1", "g2", "g3", "g4"),
        closed_form=closed_form_cluster,
        optimal=GainVector.optimal_cluster,
    ),
    "ghz": _Family(
        labels=GHZ_LABELS,
        pairs=((3, 0), (4, 1), (5, 2)),
        gain_sup=(1.0, 1.0, 1.0, 1.0),
        gain_names=("g", "g", "g", "g"),
        closed_form=closed_form_ghz,
        optimal=GainVector.optimal_ghz,
    ),
}

FAMILIES = tuple(_FAMILIES)


def _family(family: str) -> _Family:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _FAMILIES[family]


def closed_form(family: str, r: float, gains: GainVector) -> tuple[float, ...]:
    """Dispatch to the family's closed-form variances."""
    return _family(family).closed_form(r, gains)


def combination_labels(family: str) -> tuple[str, ...]:
    """Canonical labels of the six combinations of a family."""
    return _family(family).labels


def combination_forms(family: str, gains: GainVector) -> tuple[QuadForm, ...]:
    """Quadrature forms of the six combinations, canonical order."""
    return tuple(QuadForm(c) for c in _family(family).coefficients(gains))


def criterion_totals(family: str, variances: Sequence[float]) -> tuple[float, float, float]:
    """Sums (I, II, III) of conjugate-pair variances from the six components.

    ``variances`` must be in the family's canonical combination order.
    """
    v = tuple(variances)
    if len(v) != 6:
        raise ValueError("expected six component variances")
    return tuple(v[u] + v[w] for u, w in _family(family).pairs)  # type: ignore[return-value]


def _parabola(f_m: float, f_0: float, f_p: float) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of a g^2 + b g + c through g = -1, 0, 1."""
    return 0.5 * (f_p + f_m) - f_0, 0.5 * (f_p - f_m), f_0


def numeric_optimal_gain(objective: Callable[[float], float]) -> float:
    """Minimize a variance that is exactly quadratic in one gain.

    Samples the objective at g = -1, 0, 1, fits the parabola through the
    three points, and returns its vertex.  Raises ``ValueError`` when the
    quadratic coefficient is not positive (no interior minimum).
    """
    a, b, _ = _parabola(objective(-1.0), objective(0.0), objective(1.0))
    if a <= 0.0:
        raise ValueError("objective is not strictly convex in the gain")
    return -b / (2.0 * a)


# --- bipartitions and variance-sum bounds -----------------------------------


@dataclass(frozen=True)
class Bipartition:
    """Split of modes {1, 2, 3, 4} into two nonempty groups.

    Canonical form: each side ascending, the side containing mode 1 first.
    """

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(self.side_a))
        b = tuple(sorted(self.side_b))
        if not a or not b:
            raise ValueError("both sides must be nonempty")
        if sorted(a + b) != [1, 2, 3, 4]:
            raise ValueError("sides must partition modes {1, 2, 3, 4}")
        if 1 not in a:
            a, b = b, a
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)

    @property
    def label(self) -> str:
        return "".join(map(str, self.side_a)) + "|" + "".join(map(str, self.side_b))

    @classmethod
    def from_label(cls, label: str) -> "Bipartition":
        left, sep, right = label.partition("|")
        if not sep or not left or not right:
            raise ValueError(f"bad bipartition label {label!r}; expected like '12|34'")
        try:
            return cls(tuple(int(c) for c in left), tuple(int(c) for c in right))
        except ValueError as exc:
            raise ValueError(f"bad bipartition label {label!r}: {exc}") from None


ALL_BIPARTITIONS: tuple[Bipartition, ...] = (
    Bipartition((1,), (2, 3, 4)),
    Bipartition((1, 3, 4), (2,)),
    Bipartition((1, 2, 4), (3,)),
    Bipartition((1, 2, 3), (4,)),
    Bipartition((1, 2), (3, 4)),
    Bipartition((1, 3), (2, 4)),
    Bipartition((1, 4), (2, 3)),
)


@dataclass(frozen=True)
class CriterionPair:
    """Conjugate combination pair (u, v) whose variance sum bounds separability."""

    family: str
    label: str
    u: QuadForm
    v: QuadForm


def criterion_pairs(family: str, gains: GainVector) -> tuple[CriterionPair, ...]:
    """The three conjugate pairs (I, II, III) of a family.

    The bounds below are independent of the gains, because every gain
    multiplies a coefficient that is zero in the conjugate form.
    """
    forms = combination_forms(family, gains)
    return tuple(
        CriterionPair(family, lab, forms[u], forms[v])
        for lab, (u, v) in zip(CRITERION_LABELS, _family(family).pairs)
    )


def variance_sum_bound(
    u: QuadForm, v: QuadForm, side_a: Sequence[int], side_b: Sequence[int]
) -> float:
    """Separable-state lower bound on Var(u) + Var(v) across a mode split.

    ``u`` and ``v`` must act on conjugate axes (no mode carries weight on
    the same axis in both).  With per-mode commutator products
    c_k = u_X[k] v_Y[k] - u_Y[k] v_X[k], any state separable across
    (A, B) obeys

        Var(u) + Var(v) >= (1/2) (|sum_{k in A} c_k| + |sum_{k in B} c_k|).

    Sides are 1-based mode labels; works for any mode count.
    """
    if u.n_modes != v.n_modes:
        raise ValueError("u and v must act on the same number of modes")
    if np.any(u.x_part() * v.x_part()) or np.any(u.y_part() * v.y_part()):
        raise ValueError("combination pair must act on conjugate axes")
    c = u.x_part() * v.y_part() - u.y_part() * v.x_part()
    sum_a = sum(c[k - 1] for k in side_a)
    sum_b = sum(c[k - 1] for k in side_b)
    return 0.5 * (abs(sum_a) + abs(sum_b))


def bipartition_bound(pair: CriterionPair, bipartition: Bipartition) -> float:
    """Separable-state lower bound of a criterion pair across a bipartition."""
    return variance_sum_bound(pair.u, pair.v, bipartition.side_a, bipartition.side_b)


def excluded_bipartitions(pair: CriterionPair, total: float) -> frozenset[Bipartition]:
    """Bipartitions strictly ruled out by a measured or predicted sum."""
    return _result(pair, total).excluded


@dataclass(frozen=True)
class CriterionResult:
    """Evaluated criterion: variance sum, per-bipartition bounds, exclusions,
    and the pair's variances (``None`` when only the sum was measured)."""

    pair: CriterionPair
    total: float
    bounds: dict[Bipartition, float]
    excluded: frozenset[Bipartition]
    u_variance: float | None = None
    v_variance: float | None = None
    uncertainty: float | None = None


def _result(pair: CriterionPair, total: float, **fields) -> CriterionResult:
    """Result of a pair's sum; each bound is computed once and sets the exclusions."""
    bounds = {bp: bipartition_bound(pair, bp) for bp in ALL_BIPARTITIONS}
    excluded = frozenset(bp for bp, bound in bounds.items() if total < bound)
    return CriterionResult(pair, total, bounds, excluded, **fields)


def evaluate_criteria(
    state: GaussianState, family: str, gains: GainVector
) -> tuple[CriterionResult, ...]:
    """Evaluate the three criteria of a family on a four-mode state."""
    if state.n_modes != 4:
        raise ValueError("criteria are defined for four-mode states")
    results = []
    for pair in criterion_pairs(family, gains):
        u_var = combination_variance(state, pair.u)
        v_var = combination_variance(state, pair.v)
        results.append(_result(pair, u_var + v_var, u_variance=u_var, v_variance=v_var))
    return tuple(results)


def results_from_totals(
    family: str,
    gains: GainVector,
    totals: Sequence[float],
    uncertainties: Sequence[float] | None = None,
) -> tuple[CriterionResult, ...]:
    """Build criterion results from externally measured sums (I, II, III).

    The split between u and v is not known from a sum alone, so the
    results carry ``u_variance = v_variance = None``.
    """
    totals = tuple(totals)
    if len(totals) != 3:
        raise ValueError("expected three criterion sums")
    uncs: tuple[float | None, ...]
    uncs = tuple(uncertainties) if uncertainties is not None else (None, None, None)
    if len(uncs) != 3:
        raise ValueError("expected three uncertainties")
    return tuple(
        _result(pair, total, uncertainty=unc)
        for pair, total, unc in zip(criterion_pairs(family, gains), totals, uncs)
    )


def uncovered_bipartitions(results: Iterable[CriterionResult]) -> tuple[Bipartition, ...]:
    """Bipartitions excluded by none of the criteria, in canonical order."""
    union = set()
    for res in results:
        union |= res.excluded
    return tuple(bp for bp in ALL_BIPARTITIONS if bp not in union)


def full_inseparability(results: Iterable[CriterionResult]) -> bool:
    """True when the criteria jointly exclude every bipartition."""
    return not uncovered_bipartitions(tuple(results))
