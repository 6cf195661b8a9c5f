"""Tests for correlation combinations, optimal gains, and separability bounds.

All numeric expectations were frozen from an independent transcription of
the closed forms (evaluated standalone before this module was written);
the bound table was derived by hand from the variance-sum bound
(1/2)(|sum_A c_k| + |sum_B c_k|) over the per-mode commutator products c_k.
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnet import criteria
from quadnet.criteria import (
    ALL_BIPARTITIONS,
    Bipartition,
    CLUSTER_LABELS,
    GHZ_LABELS,
    CRITERION_LABELS,
    GainVector,
    closed_form,
    closed_form_cluster,
    closed_form_ghz,
    combination_forms,
    combination_labels,
    criterion_totals,
    evaluate_criteria,
    full_inseparability,
    numeric_optimal_gain,
    results_from_totals,
    uncovered_bipartitions,
    variance_sum_bound,
)
from quadnet.states import (
    MAX_SQUEEZING, Axis, QuadForm, apply, combination_variance, snl, squeezer, vacuum,
)

# --- frozen oracle values (independent evaluation, r as noted) -------------

OPTIMAL = {
    # r: (cluster outer g1=g4, cluster inner g2=g3, ghz gain)
    0.1: (0.2694696510080523, 0.21898659486846644, 0.197375320224904),
    0.402: (0.7496627771889791, 0.9991011433239109, 0.6662670550794461),
    1.0: (0.9757273379195325, 1.8611066502067082, 0.9640275800758169),
    2.0: (0.999552766506171, 1.997318997105609, 0.999329299739067),
}

CLUSTER_AT_OPT = (0.2237676191, 0.2237676191, 0.4473341031,
                  0.4473341031, 0.6432941750, 0.6432941750)
GHZ_AT_OPT = (0.3728566116, 0.3728566116, 0.3728566116,
              0.2237676191, 0.2237676191, 0.2237676191)
SUMS_AT_OPT = {"cluster": (0.6711017221, 0.6711017221, 1.2865883500),
               "ghz": (0.5966242307, 0.5966242307, 0.5966242307)}

CLUSTER_R025_UNIT = (0.3032653299, 0.3032653299, 0.5200349080,
                     0.5200349080, 0.9097959896, 0.9097959896)
GHZ_R025_UNIT = (0.6065306597, 0.6065306597, 0.6065306597,
                 0.3032653299, 0.3032653299, 0.3032653299)

# Hand-derived bound table: per-mode commutator products are
#   I cluster / I ghz : (1, -1, 0, 0)
#   II cluster / III ghz: (0, 0, 1, -1)
#   III cluster       : (0, -2, 2, 0)
#   II ghz            : (0, 1, -1, 0)
BOUNDS = {
    ("cluster", "I"): {"1|234": 1, "134|2": 1, "124|3": 0, "123|4": 0,
                       "12|34": 0, "13|24": 1, "14|23": 1},
    ("cluster", "II"): {"1|234": 0, "134|2": 0, "124|3": 1, "123|4": 1,
                        "12|34": 0, "13|24": 1, "14|23": 1},
    ("cluster", "III"): {"1|234": 0, "134|2": 2, "124|3": 2, "123|4": 0,
                         "12|34": 2, "13|24": 2, "14|23": 0},
    ("ghz", "I"): {"1|234": 1, "134|2": 1, "124|3": 0, "123|4": 0,
                   "12|34": 0, "13|24": 1, "14|23": 1},
    ("ghz", "II"): {"1|234": 0, "134|2": 1, "124|3": 1, "123|4": 0,
                    "12|34": 1, "13|24": 1, "14|23": 0},
    ("ghz", "III"): {"1|234": 0, "134|2": 0, "124|3": 1, "123|4": 1,
                     "12|34": 0, "13|24": 1, "14|23": 1},
}

MEASURED_SUMS = {"cluster": (0.828, 0.845, 1.936), "ghz": (0.836, 0.849, 0.840)}


def test_optimal_gain_frozen_values():
    """Analytic optimal gains match the frozen oracle at four r values."""
    for r, (outer, inner, ghz) in OPTIMAL.items():
        gc = GainVector.optimal("cluster", r)
        assert gc.g1 == pytest.approx(outer, abs=1e-12)
        assert gc.g4 == pytest.approx(outer, abs=1e-12)
        assert gc.g2 == pytest.approx(inner, abs=1e-12)
        assert gc.g3 == pytest.approx(inner, abs=1e-12)
        gg = GainVector.optimal("ghz", r)
        assert gg.as_tuple() == pytest.approx((ghz,) * 4, abs=1e-12)


def _reference_optimal(family, r):
    """The optimal-gain formulas in Python floats, one r at a time: the
    reference for the shared formula and its array form."""
    e4 = math.exp(4.0 * r)
    if family == "cluster":
        outer = (3.0 * e4 - 3.0) / (3.0 * e4 + 1.0)
        inner = (2.0 * e4 - 2.0) / (e4 + 3.0)
        return (outer, inner, inner, outer)
    g = (e4 - 1.0) / (e4 + 1.0)
    return (g, g, g, g)


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_optimal_gains_of_one_r_and_of_a_dense_grid_agree_bitwise(family):
    """The one optimal-gain formula, evaluated for one r (GainVector.optimal, as
    criteria does) and on an array of r (optimal_gains, as sweep does), gives
    the same bits at every r of a dense grid on [0, MAX_SQUEEZING]."""
    rs = np.concatenate([np.linspace(0.0, MAX_SQUEEZING, 20001), [0.402, 10.0]])
    grid = criteria._FAMILIES[family].optimal_gains(rs)
    one = np.array([GainVector.optimal(family, r).as_tuple() for r in rs.tolist()])
    assert np.array_equal(grid.view(np.uint64), one.view(np.uint64))


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_array_optimal_gains_match_the_scalar_form_bitwise(family):
    """A sweep's (m, 4) optimal gains and (m, 6, 8) coefficient rows carry the
    bits of GainVector.optimal and of the rows built from it, one r at a time."""
    rng = np.random.default_rng(20261018)
    rs = np.concatenate([[0.0, 1e-9, 0.402, 1.2, 5.0, 8.5, 10.0], rng.uniform(0.0, 10.0, 2000)])
    fam = criteria._family(family)
    gains = fam.optimal_gains(rs)
    scalar = np.array([GainVector.optimal(family, r).as_tuple() for r in rs.tolist()])
    reference = np.array([_reference_optimal(family, r) for r in rs.tolist()])
    assert gains.shape == (rs.size, 4)
    assert np.array_equal(gains.view(np.uint64), scalar.view(np.uint64))
    assert np.array_equal(scalar.view(np.uint64), reference.view(np.uint64))
    rows = np.array([fam.coefficients(GainVector(*g)) for g in scalar.tolist()])
    assert np.array_equal(fam.coefficients(gains).view(np.uint64), rows.view(np.uint64))


def test_gain_vector_helpers():
    """scaled() multiplies every gain; as_tuple preserves order."""
    g = GainVector(0.1, 0.2, 0.3, 0.4)
    assert g.as_tuple() == (0.1, 0.2, 0.3, 0.4)
    assert g.scaled(2.0).as_tuple() == pytest.approx((0.2, 0.4, 0.6, 0.8))


def test_closed_forms_at_optimal_gains():
    """Closed-form variances at r = 0.402 with optimal gains match the oracle."""
    r = 0.402
    cv = closed_form_cluster(r, GainVector.optimal("cluster", r))
    assert cv == pytest.approx(CLUSTER_AT_OPT, abs=1e-9)
    gv = closed_form_ghz(r, GainVector.optimal("ghz", r))
    assert gv == pytest.approx(GHZ_AT_OPT, abs=1e-9)


def test_closed_forms_unit_gains():
    """Closed forms at r = 0.25 with unit gains match the oracle."""
    unit = GainVector(1.0, 1.0, 1.0, 1.0)
    assert closed_form_cluster(0.25, unit) == pytest.approx(CLUSTER_R025_UNIT, abs=1e-9)
    assert closed_form_ghz(0.25, unit) == pytest.approx(GHZ_R025_UNIT, abs=1e-9)


def test_closed_forms_vacuum_zero_gain():
    """r = 0 with zero gains gives the exact vacuum values."""
    zero = GainVector(0.0, 0.0, 0.0, 0.0)
    assert closed_form_cluster(0.0, zero) == pytest.approx((0.5, 0.5, 0.5, 0.5, 1.25, 1.25))
    assert closed_form_ghz(0.0, zero) == pytest.approx((0.5,) * 6)


def test_closed_forms_reduce_to_snl_at_r_zero():
    """At r = 0 every closed form equals the shot-noise level of its form."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = GainVector(*rng.uniform(-2, 2, size=4))
        for family, closed in (("cluster", closed_form_cluster), ("ghz", closed_form_ghz)):
            forms = combination_forms(family, g)
            for value, form in zip(closed(0.0, g), forms):
                assert value == pytest.approx(snl(form), abs=1e-12)


def _closed_forms_decimal(family: str, r: float, gains: GainVector) -> list:
    """The closed forms in expanded polynomial form, evaluated at 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e2 = (2 * decimal.Decimal(r)).exp()
        em2 = 1 / e2
        g1, g2, g3, g4 = (decimal.Decimal(g) for g in gains.as_tuple())
        diff = em2 / 2
        if family == "cluster":
            def inner(g):
                return ((g * g - 4 * g + 4) * e2 + (3 * g * g + 4 * g + 4) * em2) / 16

            def outer(g):
                return ((3 * g * g - 6 * g + 3) * e2 + (g * g + 6 * g + 17) * em2) / 16

            return [diff, diff, inner(g3), inner(g2), outer(g1), outer(g4)]

        def xcombo(ga, gb):
            s, d = ga + gb, ga - gb
            return ((4 - 4 * s + s * s + 2 * d * d) * e2 + (4 + 4 * s + s * s) * em2) / 16

        return [xcombo(g3, g4), xcombo(g1, g4), xcombo(g1, g2), diff, diff, diff]


@pytest.mark.parametrize("family", ["cluster", "ghz"])
@pytest.mark.parametrize("r", [0.402, 1.2, 2.0, 5.0, 8.5, 10.0])
def test_closed_forms_keep_precision_at_strong_squeezing(family, r):
    """At optimal gains the e^{2r} coefficients nearly vanish; the closed
    forms stay within 1e-14 relative of a 60-digit evaluation at the same
    float gains."""
    gains = GainVector.optimal(family, r)
    exact = _closed_forms_decimal(family, r, gains)
    for value, reference in zip(closed_form(family, r, gains), exact):
        assert abs(decimal.Decimal(value) / reference - 1) < decimal.Decimal("1e-14")


def test_criterion_sums_at_optimal():
    """Criterion sums at r = 0.402 with optimal gains match the oracle."""
    r = 0.402
    cs = criterion_totals("cluster", closed_form_cluster(r, GainVector.optimal("cluster", r)))
    assert cs == pytest.approx(SUMS_AT_OPT["cluster"], abs=1e-9)
    gs = criterion_totals("ghz", closed_form_ghz(r, GainVector.optimal("ghz", r)))
    assert gs == pytest.approx(SUMS_AT_OPT["ghz"], abs=1e-9)


def test_numeric_gain_matches_analytic():
    """Quadratic vertex search reproduces the analytic optimal gains to 1e-8."""
    for r in (0.1, 0.402, 1.0, 2.0):
        outer, inner, ghz = OPTIMAL[r]
        g1 = numeric_optimal_gain(lambda g: closed_form_cluster(r, GainVector(g, 1, 1, 1))[4])
        g2 = numeric_optimal_gain(lambda g: closed_form_cluster(r, GainVector(1, g, 1, 1))[3])
        g3 = numeric_optimal_gain(lambda g: closed_form_cluster(r, GainVector(1, 1, g, 1))[2])
        g4 = numeric_optimal_gain(lambda g: closed_form_cluster(r, GainVector(1, 1, 1, g))[5])
        assert g1 == pytest.approx(outer, abs=1e-8)
        assert g4 == pytest.approx(outer, abs=1e-8)
        assert g2 == pytest.approx(inner, abs=1e-8)
        assert g3 == pytest.approx(inner, abs=1e-8)
        # GHZ: minimize the symmetric X combination over a common gain.
        gg = numeric_optimal_gain(lambda g: closed_form_ghz(r, GainVector(g, g, g, g))[0])
        assert gg == pytest.approx(ghz, abs=1e-8)


def test_numeric_gain_rejects_nonconvex():
    """A concave objective has no quadratic minimum."""
    with pytest.raises(ValueError):
        numeric_optimal_gain(lambda g: -g * g)
    with pytest.raises(ValueError):
        numeric_optimal_gain(lambda g: 3.0 + 0.0 * g)


def test_combination_labels_and_forms():
    """Canonical labels and coefficient vectors line up for both families."""
    g = GainVector(0.3, 0.5, 0.7, 0.9)
    assert combination_labels("cluster") == CLUSTER_LABELS
    assert combination_labels("ghz") == GHZ_LABELS
    cf = combination_forms("cluster", g)
    assert np.allclose(cf[0].coeffs, [0, 0, 0, 0, 1, -1, 0, 0])        # Y1-Y2
    assert np.allclose(cf[1].coeffs, [0, 0, 1, -1, 0, 0, 0, 0])        # X3-X4
    assert np.allclose(cf[2].coeffs, [1, 1, 0.7, 0, 0, 0, 0, 0])       # X1+X2+g3*X3
    assert np.allclose(cf[3].coeffs, [0, 0, 0, 0, 0, -0.5, 1, 1])      # -g2*Y2+Y3+Y4
    assert np.allclose(cf[4].coeffs, [0.3, 1, 2, 0, 0, 0, 0, 0])       # g1*X1+X2+2*X3
    assert np.allclose(cf[5].coeffs, [0, 0, 0, 0, 0, -2, 1, 0.9])      # -2*Y2+Y3+g4*Y4
    gf = combination_forms("ghz", g)
    assert np.allclose(gf[0].coeffs, [1, 1, 0.7, 0.9, 0, 0, 0, 0])
    assert np.allclose(gf[1].coeffs, [0.3, 1, 1, 0.9, 0, 0, 0, 0])
    assert np.allclose(gf[2].coeffs, [0.3, 0.5, 1, 1, 0, 0, 0, 0])
    assert np.allclose(gf[3].coeffs, [0, 0, 0, 0, 1, -1, 0, 0])
    assert np.allclose(gf[4].coeffs, [0, 0, 0, 0, 0, 1, -1, 0])
    assert np.allclose(gf[5].coeffs, [0, 0, 0, 0, 0, 0, 1, -1])
    with pytest.raises(ValueError):
        combination_forms("w", g)


def test_bipartition_canonicalization():
    """Sides are sorted, the side holding mode 1 comes first, labels match."""
    bp = Bipartition((3, 2), (4, 1))
    assert bp.side_a == (1, 4)
    assert bp.side_b == (2, 3)
    assert bp.label == "14|23"
    assert Bipartition.from_label("23|14") == bp
    assert [b.label for b in ALL_BIPARTITIONS] == [
        "1|234", "134|2", "124|3", "123|4", "12|34", "13|24", "14|23"]
    with pytest.raises(ValueError):
        Bipartition((1, 2), (3,))
    with pytest.raises(ValueError):
        Bipartition((1, 2, 3, 4), ())
    with pytest.raises(ValueError):
        Bipartition((1, 2), (2, 3, 4))


def test_bipartition_label_is_built_once():
    """A bipartition builds its label on the first access and keeps it, which
    leaves its equality, hash and repr to its two sides."""
    for bp in ALL_BIPARTITIONS:
        assert bp.label is bp.label
        twin = Bipartition(bp.side_a, bp.side_b)
        assert twin == bp and hash(twin) == hash(bp) and repr(twin) == repr(bp)


def _pairs(family, gains):
    """(label, u, v) of criteria I, II, III: the family's paired forms at these gains."""
    forms = combination_forms(family, gains)
    return [(label, forms[u], forms[v])
            for label, (u, v) in zip(CRITERION_LABELS, criteria._family(family).pairs)]


def _bound(u, v, bp):
    return variance_sum_bound(u, v, bp.side_a, bp.side_b)


def test_bound_table_matches_hand_derivation():
    """Variance-sum bounds match the hand-derived golden table, gains aside."""
    for gains in (GainVector(1, 1, 1, 1), GainVector(0.3, 0.6, 0.9, 1.2)):
        for family in ("cluster", "ghz"):
            for label, u, v in _pairs(family, gains):
                expected = BOUNDS[(family, label)]
                for bp in ALL_BIPARTITIONS:
                    assert _bound(u, v, bp) == pytest.approx(
                        expected[bp.label], abs=1e-12
                    ), (family, label, bp.label)


def test_measured_sums_cover_all_bipartitions():
    """Measured criterion sums jointly exclude all seven bipartitions."""
    for family, sums in MEASURED_SUMS.items():
        union = set()
        for result in results_from_totals(family, sums):
            excl = result.excluded
            assert excl  # every criterion rules out something
            union |= excl
        assert union == set(ALL_BIPARTITIONS)


def test_exclusion_is_strict():
    """A sum at the bound, or below it by round-off (within 1e-12 relative),
    does not exclude the bipartition."""
    _, u, v = _pairs("cluster", GainVector(1, 1, 1, 1))[0]

    def exclusions(total):
        return results_from_totals("cluster", (total, 5.0, 5.0))[0].excluded

    at_bound = exclusions(1.0)
    below = exclusions(0.999)
    assert not any(_bound(u, v, bp) == 1.0 for bp in at_bound)
    assert {bp.label for bp in below} == {"1|234", "134|2", "13|24", "14|23"}
    for total, excluded in ((0.9999999999999997, set()), (1.0 - 1e-11, below)):
        assert exclusions(total) == excluded


def test_evaluate_criteria_on_vacuum():
    """Vacuum excludes nothing: every sum sits at or above every bound."""
    g = GainVector(1, 1, 1, 1)
    results = evaluate_criteria(
        "cluster", [combination_variance(vacuum(4), f) for f in combination_forms("cluster", g)])
    assert len(results) == 3
    for res in results:
        assert res.total == pytest.approx(res.u_variance + res.v_variance)
        assert not res.excluded
    assert not full_inseparability(results)


def test_evaluate_criteria_total_uses_state():
    """Criterion totals come from combination variances of the state."""
    st = vacuum(4)
    for mode, axis in ((0, Axis.Y), (1, Axis.X), (2, Axis.X), (3, Axis.Y)):
        st = apply(st, squeezer(4, mode, 0.3, axis))
    g = GainVector(1, 1, 1, 1)
    variances = [combination_variance(st, f) for f in combination_forms("cluster", g)]
    for res, (_, u, v) in zip(evaluate_criteria("cluster", variances), _pairs("cluster", g)):
        u_var = combination_variance(st, u)
        v_var = combination_variance(st, v)
        assert res.total == pytest.approx(u_var + v_var, abs=1e-12)
        assert res.bounds == {bp: _bound(u, v, bp)
                              for bp in ALL_BIPARTITIONS}


def test_results_from_totals_reports_exclusions():
    """Externally measured sums flow into totals, exclusions, uncertainties."""
    results = results_from_totals("ghz", (0.836, 0.849, 0.840),
                                  (0.016, 0.014, 0.020))
    assert [r.total for r in results] == pytest.approx([0.836, 0.849, 0.840])
    assert all(r.u_variance is None and r.v_variance is None for r in results)
    assert results[0].uncertainty == 0.016
    assert full_inseparability(results)
    assert uncovered_bipartitions(results) == ()
    high = results_from_totals("ghz", (10.0, 10.0, 10.0))
    assert not full_inseparability(high)
    assert uncovered_bipartitions(high) == ALL_BIPARTITIONS


@pytest.mark.parametrize("call, message", [
    (lambda: results_from_totals("cluster", (1.0, 1.0)), "expected three criterion sums"),
    (lambda: results_from_totals("ghz", (1.0,) * 4), "expected three criterion sums"),
    (lambda: results_from_totals("cluster", (1.0,) * 3, (0.1, 0.1)),
     "expected three uncertainties"),
    (lambda: evaluate_criteria("ghz", (1.0,) * 5), "expected six component variances"),
], ids=["two-sums", "four-sums", "two-uncertainties", "five-variances"])
def test_criteria_reject_the_wrong_number_of_inputs(call, message):
    """Sums, uncertainties and component variances are counted before use."""
    with pytest.raises(ValueError, match=message):
        call()


_FINITE_GAIN = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(family=st.sampled_from(("cluster", "ghz")),
       gains=st.tuples(*[_FINITE_GAIN] * 4).map(lambda g: GainVector(*g)))
def test_cached_bound_maps_equal_the_bounds_at_any_gains(family, gains):
    """Each family's bound map is built once; the bounds of its pairs at random
    finite gains equal it, and every result holds its own copy."""
    cached = criteria._bound_maps(family)
    pairs = _pairs(family, gains)
    for (_, u, v), bounds in zip(pairs, cached):
        assert {bp: _bound(u, v, bp) for bp in ALL_BIPARTITIONS} == bounds
    results = results_from_totals(family, (1.0, 1.0, 1.0))
    for res, bounds in zip(results, cached):
        assert res.bounds == bounds and res.bounds is not bounds
    results[0].bounds.clear()
    assert criteria._bound_maps(family) is cached and len(cached[0]) == len(ALL_BIPARTITIONS)


def test_epr_two_mode_bound():
    """Canonical two-mode EPR pair has bound 1 across the only split."""
    u = QuadForm(np.array([1.0, -1.0, 0.0, 0.0]))  # X1 - X2
    v = QuadForm(np.array([0.0, 0.0, 1.0, 1.0]))   # Y1 + Y2
    assert variance_sum_bound(u, v, (1,), (2,)) == pytest.approx(1.0)
    # Vacuum exactly saturates: Var(u) + Var(v) = 0.5 + 0.5 = 1.
    assert snl(u) + snl(v) == pytest.approx(1.0)


def test_bound_requires_conjugate_axes():
    """Pairs sharing an axis on some mode are rejected."""
    u = QuadForm(np.array([1.0, -1.0, 0.0, 0.0]))
    v = QuadForm(np.array([1.0, 1.0, 0.0, 0.0]))  # same axis as u
    with pytest.raises(ValueError):
        variance_sum_bound(u, v, (1,), (2,))


def test_bound_scaling_invariance():
    """Rescaling u by alpha and v by 1/alpha leaves every bound unchanged."""
    for family in ("cluster", "ghz"):
        for _, u, v in _pairs(family, GainVector(0.4, 0.8, 1.2, 1.6)):
            for alpha in (2.0, -3.0, 0.125):
                for bp in ALL_BIPARTITIONS:
                    scaled = variance_sum_bound(
                        u.scaled(alpha), v.scaled(1.0 / alpha),
                        bp.side_a, bp.side_b)
                    assert scaled == pytest.approx(_bound(u, v, bp), abs=1e-12)


def test_vacuum_never_violates_bounds():
    """Vacuum criterion sums sit at or above every bipartition bound."""
    for family in ("cluster", "ghz"):
        for gains in (GainVector.unit(), GainVector.optimal(family, 0.6)):
            variances = [combination_variance(vacuum(4), f)
                         for f in combination_forms(family, gains)]
            for res, (_, u, v) in zip(evaluate_criteria(family, variances),
                                      _pairs(family, gains)):
                for bp in ALL_BIPARTITIONS:
                    assert res.total >= _bound(u, v, bp) - 1e-12


def test_optimal_gain_is_local_minimum():
    """Closed forms strictly increase when nudged off the optimal gain."""
    r = 0.402
    for family in ("cluster", "ghz"):
        opt = GainVector.optimal(family, r)
        base = closed_form(family, r, opt)
        gain_slots = {"cluster": {2: "g3", 3: "g2", 4: "g1", 5: "g4"},
                      "ghz": {0: None, 1: None, 2: None}}[family]
        for idx in gain_slots:
            for delta in (-0.01, 0.01):
                if family == "cluster":
                    field = {2: "g3", 3: "g2", 4: "g1", 5: "g4"}[idx]
                    kwargs = {k: getattr(opt, k) for k in ("g1", "g2", "g3", "g4")}
                    kwargs[field] += delta
                    nudged = GainVector(**kwargs)
                else:
                    nudged = GainVector(*(g + delta for g in opt.as_tuple()))
                assert closed_form(family, r, nudged)[idx] > base[idx]


def test_criterion_sums_monotone_in_r():
    """With optimal gains every criterion sum is non-increasing on [0, 3]."""
    grid = np.linspace(0.0, 3.0, 31)
    for family in ("cluster", "ghz"):
        prev = None
        for r in grid:
            sums = criterion_totals(
                family, closed_form(family, float(r), GainVector.optimal(family, float(r))))
            if prev is not None:
                for s, p in zip(sums, prev):
                    assert s <= p + 1e-12
            prev = sums


def test_coverage_boundary_in_r():
    """GHZ covers all bipartitions for every r > 0; cluster only above a
    threshold where criterion III drops below its bound of 2 (the III sum
    exceeds 2 for small r, leaving the 12|34-type splits unexcluded)."""
    def covered(family, r):
        gains = GainVector.optimal(family, r)
        totals = criterion_totals(family, closed_form(family, r, gains))
        return full_inseparability(results_from_totals(family, totals))

    for r in np.linspace(0.01, 3.0, 31):
        assert covered("ghz", float(r))
    assert covered("cluster", 0.2)
    assert covered("cluster", 0.402)
    assert not covered("cluster", 0.1)  # III sum is above 2 here
    # The changeover sits between 0.14 and 0.15.
    lo, hi = 0.14, 0.15
    assert not covered("cluster", lo) and covered("cluster", hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if covered("cluster", mid):
            hi = mid
        else:
            lo = mid
    threshold = 0.5 * (lo + hi)
    sums = criterion_totals(
        "cluster", closed_form_cluster(threshold, GainVector.optimal("cluster", threshold)))
    assert sums[2] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gain_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        GainVector(1.0, bad, 1.0, 1.0)


# Gain slots, criterion members, gain limits and the gains-table rows as
# written out by hand from the paper's combinations (0-based slots into
# (g1, g2, g3, g4), 0-based combination indices in canonical order).
HAND_GAIN_SLOTS = {
    "cluster": {2: (2,), 3: (1,), 4: (0,), 5: (3,)},
    "ghz": {0: (2, 3), 1: (0, 3), 2: (0, 1)},
}
HAND_CRITERION_MEMBERS = {  # (gain-free members, gain-bearing members)
    "cluster": (((0,), (2,)), ((1,), (3,)), ((), (4, 5))),
    "ghz": (((3,), (0,)), ((4,), (1,)), ((5,), (2,))),
}
HAND_SUM_GAIN_LIMITS = {"cluster": (2.0, 2.0, 1.0), "ghz": (1.0, 1.0, 1.0)}
HAND_GAIN_TABLE = {
    "cluster": (("g1", 4, (0,)), ("g2", 3, (1,)), ("g3", 2, (2,)), ("g4", 5, (3,))),
    "ghz": (("g", 0, (2, 3)),),
}


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_family_record_derives_hand_tables(family):
    """The tables calibration and the gains command use follow from the record."""
    from quadnet.calibration import infer_sum_gains, packaged_dataset
    from quadnet.criteria import _family

    fam = _family(family)
    assert {i: s for i, s in enumerate(fam.slots) if s} == HAND_GAIN_SLOTS[family]
    members = tuple(
        (tuple(i for i in pair if not fam.slots[i]), tuple(i for i in pair if fam.slots[i]))
        for pair in fam.pairs
    )
    assert members == HAND_CRITERION_MEMBERS[family]
    limits = tuple(rec.gain_limit for rec in infer_sum_gains(packaged_dataset(family)))
    assert limits == HAND_SUM_GAIN_LIMITS[family]
    assert fam.gain_rows() == HAND_GAIN_TABLE[family]


def test_unknown_family_is_one_error():
    for call in (lambda: combination_labels("w"), lambda: GainVector.optimal("w", 0.1),
                 lambda: closed_form("w", 0.1, GainVector.unit()),
                 lambda: criterion_totals("w", (1.0,) * 6)):
        with pytest.raises(ValueError, match="unknown family 'w'"):
            call()
