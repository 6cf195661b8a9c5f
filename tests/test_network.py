"""Tests for network parsing, elaboration, and the experiment builder.

Frozen numeric expectations come from the independent closed-form oracle
(0.5*exp(-2r) = 0.2237676191 at r = 0.402; uniform loss eta*v + (1-eta)*snl).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnet.criteria import GainVector, closed_form, combination_forms
from quadnet import network
from quadnet.errors import (
    NetworkFormatError,
    NetworkParseError,
    ParameterRangeError,
    PhysicalityError,
    UndeclaredLabelError,
    UnknownKeywordError,
)
from quadnet.network import (
    Element,
    ExperimentConfig,
    NetworkSpec,
    build_experiment_network,
    elaborate,
    packaged_network,
    parse_network,
    serialize_network,
    simulate_experiment,
)
from quadnet.states import (
    MAX_SQUEEZING,
    Axis,
    QuadForm,
    beam_splitter,
    combination_variance,
    is_physical,
    loss_channel,
    phase_shift,
    squeezer,
    variance_db,
)

YDIFF_R0402 = 0.2237676191   # 0.5 * exp(-0.804)
YDIFF_DB_R0402 = -3.4917276  # 10*log10(exp(-0.804))


# --- parsing ----------------------------------------------------------------


def test_parse_minimal_network():
    """A one-mode, one-squeezer description parses into the obvious spec."""
    spec = parse_network("mode a1\nsq a1 Y 0.402\nout a1\n")
    assert spec.mode_names == ("a1",)
    assert spec.elements == (Element("sq", ("a1",), (0.402,), "Y"),)
    assert spec.outputs == ("a1",)


def test_parse_comments_and_blank_lines():
    """Comments and blank lines are ignored; inline comments too."""
    text = "# header\n\nmode a1  # the only mode\n\nsq a1 X 0.1\nout a1\n"
    spec = parse_network(text)
    assert spec.mode_names == ("a1",)
    assert spec.elements[0].axis == "X"


def test_parse_empty_input_is_an_error():
    """No output declaration (or nothing at all) is rejected."""
    with pytest.raises(NetworkFormatError):
        parse_network("")
    with pytest.raises(NetworkFormatError):
        parse_network("mode a1\nsq a1 Y 0.1\n")


def test_parse_unknown_keyword_reports_position():
    """Unknown keywords raise their own category with line and column."""
    with pytest.raises(UnknownKeywordError) as err:
        parse_network("mode a1\nsqueeze a1 Y 0.1\nout a1\n")
    assert err.value.line == 2
    assert err.value.column == 1
    assert "line 2" in str(err.value)


def test_parse_undeclared_label():
    """Referencing an undeclared mode raises its own category."""
    with pytest.raises(UndeclaredLabelError) as err:
        parse_network("mode a1\nsq a2 Y 0.1\nout a1\n")
    assert err.value.line == 2
    assert err.value.column == 4
    with pytest.raises(UndeclaredLabelError):
        parse_network("mode a1\nout a1 a9\n")


def test_parse_parameter_range():
    """Out-of-range parameters raise their own category."""
    with pytest.raises(ParameterRangeError):
        parse_network("mode a1\nsq a1 Y 99\nout a1\n")
    with pytest.raises(ParameterRangeError):
        parse_network("mode a1\nsq a1 Z 0.1\nout a1\n")
    with pytest.raises(ParameterRangeError):
        parse_network("mode a1\nloss a1 1.5\nout a1\n")
    with pytest.raises(ParameterRangeError):
        parse_network("mode a1\nps a1 inf\nout a1\n")


def test_parse_format_errors():
    """Structural mistakes are NetworkFormatError with positions."""
    cases = [
        "mode a1\nmode a1\nout a1\n",              # duplicate mode
        "mode a1\nsq a1 Y\nout a1\n",              # wrong arg count
        "mode a1\nps a1 abc\nout a1\n",            # non-numeric parameter
        "mode a1\nmode a2\nbs a1 a1 0.0\nout a1\n",  # bs needs distinct modes
        "mode a1\nout a1 a1\n",                    # duplicate output
        "mode a1\nout a1\nsq a1 Y 0.1\n",          # statement after out
        "mode a1\nout\n",                          # out without names
    ]
    for text in cases:
        with pytest.raises(NetworkFormatError):
            parse_network(text)


def test_parse_errors_subclass_common_base():
    """All parse failures share NetworkParseError for catch-all handling."""
    for text in ("wat\n", "mode a1\nsq a2 Y 0.1\nout a1\n", "mode a1\nloss a1 2\nout a1\n"):
        with pytest.raises(NetworkParseError):
            parse_network(text)


def test_serialize_round_trip_experiment_networks():
    """parse(serialize(spec)) == spec for built experiment networks."""
    for family in ("cluster", "ghz"):
        for effs in ((1.0, 1.0, 1.0, 1.0), (0.5, 0.6, 0.7, 0.8)):
            spec = build_experiment_network(ExperimentConfig(family, 0.402, effs))
            assert parse_network(serialize_network(spec)) == spec


def test_serialize_round_trip_custom_spec():
    """Round trip preserves exact float parameters on a handmade spec."""
    spec = NetworkSpec(
        ("u", "v"),
        (
            Element("sq", ("u",), (0.123456789012345,), "X"),
            Element("ps", ("v",), (-2.5,)),
            Element("bs", ("u", "v"), (math.pi / 3,)),
            Element("loss", ("v",), (0.875,)),
        ),
        ("v", "u"),
    )
    assert parse_network(serialize_network(spec)) == spec


def test_packaged_files_match_builder():
    """Shipped .net files equal the built specs at the reference settings."""
    for family in ("cluster", "ghz"):
        built = build_experiment_network(ExperimentConfig(family, 0.402))
        assert packaged_network(family) == built


# --- elaboration ------------------------------------------------------------


def test_elaborate_no_elements_is_vacuum():
    """A spec with no elements elaborates to vacuum on its outputs."""
    spec = NetworkSpec(("a", "b"), (), ("a", "b"))
    st = elaborate(spec)
    assert np.allclose(st.cov, 0.25 * np.eye(4))
    assert np.allclose(st.mean, 0.0)


def test_elaborate_single_squeezer():
    """One squeezer gives the expected diagonal covariance."""
    spec = parse_network("mode a1\nsq a1 Y 0.402\nout a1\n")
    st = elaborate(spec)
    assert st.cov[1, 1] == pytest.approx(0.25 * math.exp(-0.804), abs=1e-12)
    assert st.cov[0, 0] == pytest.approx(0.25 * math.exp(0.804), abs=1e-12)


def test_elaborate_output_order_and_tracing():
    """Outputs appear in declaration order; undeclared outputs are traced out."""
    text = "mode a\nmode b\nsq a Y 0.7\nsq b X 0.2\nout b a\n"
    st = elaborate(parse_network(text))
    # Output mode 0 is b (X-squeezed), output mode 1 is a (Y-squeezed).
    assert st.cov[0, 0] == pytest.approx(0.25 * math.exp(-0.4))
    assert st.cov[3, 3] == pytest.approx(0.25 * math.exp(-1.4))
    traced = elaborate(parse_network("mode a\nmode b\nsq a Y 0.7\nsq b X 0.2\nout b\n"))
    assert traced.n_modes == 1
    assert traced.cov[0, 0] == pytest.approx(0.25 * math.exp(-0.4))


def test_elaborate_permutation_covariance():
    """Relabeling modes permutes the covariance blocks accordingly."""
    base = ("mode m0\nmode m1\nmode m2\n"
            "sq m0 Y 0.5\nsq m1 X 0.3\nbs m0 m2 0.4\nps m1 1.1\nout m0 m1 m2\n")
    swapped = ("mode m1\nmode m0\nmode m2\n"
               "sq m0 Y 0.5\nsq m1 X 0.3\nbs m0 m2 0.4\nps m1 1.1\nout m0 m1 m2\n")
    # Identical element lists and output order: the output state must be
    # identical no matter how mode declarations are ordered internally.
    st_a = elaborate(parse_network(base))
    st_b = elaborate(parse_network(swapped))
    assert np.allclose(st_a.cov, st_b.cov, atol=1e-14)
    # Permuting the *output order* permutes the covariance sub-blocks.
    perm = elaborate(parse_network(base.replace("out m0 m1 m2", "out m2 m0 m1")))
    order, n = [2, 0, 1], 3
    flat = order + [m + n for m in order]
    assert np.allclose(perm.cov, st_a.cov[np.ix_(flat, flat)], atol=1e-14)


def test_lossless_network_purity():
    """Unit-efficiency experiment outputs are pure: det(cov) = (1/16)^4."""
    for family in ("cluster", "ghz"):
        st = simulate_experiment(ExperimentConfig(family, 0.8))
        assert np.linalg.det(st.cov) == pytest.approx((1.0 / 16.0) ** 4, rel=1e-10)
        assert is_physical(st)


# --- experiment builder ------------------------------------------------------


def test_experiment_config_validation():
    """Target, r, efficiencies, and gains strings are validated."""
    with pytest.raises(ValueError):
        ExperimentConfig("w", 0.4)
    with pytest.raises(ValueError):
        ExperimentConfig("cluster", -0.1)
    with pytest.raises(ValueError):
        ExperimentConfig("cluster", 0.4, (1.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig("cluster", 0.4, (1.0, 1.0, 1.0, 1.2))
    with pytest.raises(ValueError):
        ExperimentConfig("cluster", 0.4, gains="bogus")
    cfg = ExperimentConfig("ghz", 0.402)
    assert cfg.resolved_gains() == GainVector.optimal_ghz(0.402)
    explicit = GainVector(0.1, 0.2, 0.3, 0.4)
    assert ExperimentConfig("ghz", 0.402, gains=explicit).resolved_gains() == explicit


def _built(family, r):
    return build_experiment_network(ExperimentConfig(family, r))


def _closed_form_max_error(rs, gain_multipliers=(1.0,), network=_built,
                           families=("cluster", "ghz")):
    """Worst |simulated - closed form| of ``network(family, r)`` over a grid."""
    worst = 0.0
    for family in families:
        for r in rs:
            state = elaborate(network(family, float(r)))
            for mult in gain_multipliers:
                gains = GainVector.optimal(family, float(r)).scaled(mult)
                targets = closed_form(family, float(r), gains)
                for form, target in zip(combination_forms(family, gains), targets):
                    worst = max(worst, abs(combination_variance(state, form) - target))
    return worst


def _at_r(spec, r):
    """``spec`` with every squeezer set to ``r``."""
    return dataclasses.replace(spec, elements=tuple(
        dataclasses.replace(el, params=(r,)) if el.kind == "sq" else el
        for el in spec.elements))


def test_builder_sets_only_squeezing_of_packaged_network():
    """Without losses the built network is the packaged file with every
    squeezer set to the configured r."""
    for family in ("cluster", "ghz"):
        built = build_experiment_network(ExperimentConfig(family, 0.7))
        assert built == _at_r(packaged_network(family), 0.7)


def test_ghz_wiring_in_cluster_file_is_caught_only_above_r_zero():
    """The cluster file without its third splitter's phase is the GHZ wiring.
    At r = 0 every passive network returns vacuum, so it still matches the
    cluster closed forms; at r = 0.402 it misses them."""
    packaged = packaged_network("cluster")
    cluster_phase = Element("ps", ("a4",), (-math.pi / 2.0,))
    assert packaged.elements.count(cluster_phase) == 1
    ghz_wiring = dataclasses.replace(packaged, elements=tuple(
        el for el in packaged.elements if el != cluster_phase))

    def wrong(family, r):
        return _at_r(ghz_wiring, r)

    assert _closed_form_max_error((0.0,), network=wrong, families=("cluster",)) <= 1e-12
    assert _closed_form_max_error((0.402,), network=wrong, families=("cluster",)) > 1e-3


def test_cluster_r_zero_elaborates_to_vacuum():
    """A passive network on vacuum inputs returns vacuum outputs."""
    for family in ("cluster", "ghz"):
        st = simulate_experiment(ExperimentConfig(family, 0.0))
        assert np.allclose(st.cov, 0.25 * np.eye(8), atol=1e-12)


def test_cluster_y_difference_frozen_value():
    """Cluster output: Var(Y1 - Y2) = 0.2237676191 at r = 0.402."""
    st = simulate_experiment(ExperimentConfig("cluster", 0.402))
    form = QuadForm.single_axis(4, Axis.Y, {0: 1.0, 1: -1.0})
    assert combination_variance(st, form) == pytest.approx(YDIFF_R0402, abs=1e-9)
    assert variance_db(st, form) == pytest.approx(YDIFF_DB_R0402, abs=1e-6)


def test_ghz_y_differences_frozen_value():
    """GHZ output: all three Y differences equal 0.2237676191 at r = 0.402."""
    st = simulate_experiment(ExperimentConfig("ghz", 0.402))
    for pair in ({0: 1.0, 1: -1.0}, {1: 1.0, 2: -1.0}, {2: 1.0, 3: -1.0}):
        form = QuadForm.single_axis(4, Axis.Y, pair)
        assert combination_variance(st, form) == pytest.approx(YDIFF_R0402, abs=1e-9)


def test_uniform_loss_frozen_value():
    """eta = 0.456 on every port: Var(Y1 - Y2) = eta*v + (1 - eta0)*snl."""
    st = simulate_experiment(ExperimentConfig("cluster", 0.402, (0.456,) * 4))
    form = QuadForm.single_axis(4, Axis.Y, {0: 1.0, 1: -1.0})
    expected = 0.456 * YDIFF_R0402 + 0.544 * 0.5
    assert combination_variance(st, form) == pytest.approx(expected, abs=1e-9)
    assert variance_db(st, form) == pytest.approx(-1.2605424, abs=1e-6)
    assert is_physical(st)


def test_losses_appear_as_elements():
    """Non-unit efficiencies compile to loss elements on the right lines."""
    spec = build_experiment_network(ExperimentConfig("cluster", 0.402, (1.0, 0.9, 1.0, 0.7)))
    losses = [el for el in spec.elements if el.kind == "loss"]
    # Port 2 reads line a2, port 4 reads line a3.
    assert [(el.modes[0], el.params[0]) for el in losses] == [("a2", 0.9), ("a3", 0.7)]


def test_simulator_matches_closed_forms_on_acceptance_grid():
    """Simulated variances equal closed forms to 1e-9 over the broad grid."""
    err = _closed_form_max_error(
        rs=(0.0, 0.25, 0.402, 0.75, 1.5),
        gain_multipliers=(0.0, 1.0, 1.3),
    )
    assert err <= 1e-9


def test_simulator_matches_closed_forms_dense_r():
    """The 21-point r grid on [0, 2] stays within 1e-9 of the closed forms."""
    assert _closed_form_max_error(rs=np.linspace(0.0, 2.0, 21)) <= 1e-9


def test_simulator_matches_closed_forms_random_draws():
    """200 random (r, gains) draws agree with the closed forms to 1e-9."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        r = float(rng.uniform(0.0, 2.0))
        gains = GainVector(*rng.uniform(-2.0, 2.0, size=4))
        family = "cluster" if rng.integers(2) else "ghz"
        st = simulate_experiment(ExperimentConfig(family, r, gains=gains))
        for form, target in zip(combination_forms(family, gains),
                                closed_form(family, r, gains)):
            worst = max(worst, abs(combination_variance(st, form) - target))
    assert worst <= 1e-9


def test_network_spec_structural_validation():
    """Programmatic construction enforces the same structural rules."""
    with pytest.raises(ValueError):
        NetworkSpec((), (), ("a",))
    with pytest.raises(ValueError):
        NetworkSpec(("a", "a"), (), ("a",))
    with pytest.raises(ValueError):
        NetworkSpec(("a",), (), ())
    with pytest.raises(ValueError):
        NetworkSpec(("a",), (), ("b",))
    with pytest.raises(ValueError):
        NetworkSpec(("a",), (Element("ps", ("b",), (0.1,)),), ("a",))
    with pytest.raises(ValueError):
        NetworkSpec(("a", "b"), (), ("a", "a"))  # same mode twice


@pytest.mark.parametrize("family", ["cluster", "ghz"])
@pytest.mark.parametrize("effs", [(1.0, 1.0, 1.0, 1.0), (0.9, 0.8, 0.7, 0.95)])
def test_maximal_squeezing_is_physical(family, effs):
    """At r = MAX_SQUEEZING the eigenvalue round-off (~2e-16 of the largest
    eigenvalue, ~1e-8 here) stays inside the physicality tolerance."""
    config = ExperimentConfig(family, MAX_SQUEEZING, effs)
    state = simulate_experiment(config)
    assert is_physical(state)
    spec = parse_network(serialize_network(build_experiment_network(config)))
    assert np.array_equal(elaborate(spec).cov, state.cov)


_LABELS = ("a", "b", "c", "d", "e")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def network_specs(draw):
    """Random specs over every element kind, with in-range parameters."""
    names = _LABELS[: draw(st.integers(2, len(_LABELS)))]
    mode = st.sampled_from(names)
    two_modes = st.lists(mode, min_size=2, max_size=2, unique=True).map(tuple)
    element = st.one_of(
        st.builds(lambda m, a, r: Element("sq", (m,), (r,), a), mode,
                  st.sampled_from("XY"), st.floats(0.0, MAX_SQUEEZING)),
        st.builds(lambda ms, t: Element("bs", ms, (t,)), two_modes, _FINITE),
        st.builds(lambda m, p: Element("ps", (m,), (p,)), mode, _FINITE),
        st.builds(lambda m, e: Element("loss", (m,), (e,)), mode, st.floats(0.0, 1.0)),
    )
    elements = draw(st.lists(element, max_size=12))
    outputs = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
    return NetworkSpec(names, tuple(elements), tuple(outputs))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(network_specs())
def test_serialize_parse_round_trip_property(spec):
    """parse(serialize(spec)) == spec for every element kind and parameter."""
    assert parse_network(serialize_network(spec)) == spec


def test_element_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown element kind"):
        Element("mirror", ("a",), (0.5,))


# --- in-place elaboration against the dense channel composition ---------------


def _dense_elaborate(spec):
    """Reference: compose the public dense channels, ``V -> T V T^t + N``."""
    index, n = spec.label_map, spec.n_modes
    cov = 0.25 * np.eye(2 * n)
    for el in spec.elements:
        modes = [index[m] for m in el.modes]
        p = el.params[0]
        channel = {
            "sq": lambda: squeezer(n, modes[0], p, el.axis),
            "bs": lambda: beam_splitter(n, modes[0], modes[1], p),
            "ps": lambda: phase_shift(n, modes[0], p),
            "loss": lambda: loss_channel(n, modes[0], p),
        }[el.kind]()
        cov = channel.T @ cov @ channel.T.T + channel.N
    out = [index[name] for name in spec.outputs]
    flat = out + [m + n for m in out]
    return cov[np.ix_(flat, flat)]


@st.composite
def wide_network_specs(draw):
    """1-16 modes, every element kind, outputs a random subset in random order."""
    names = tuple(f"m{k}" for k in range(draw(st.integers(1, 16))))
    mode = st.sampled_from(names)
    element = st.one_of(
        st.builds(lambda m, a, r: Element("sq", (m,), (r,), a), mode,
                  st.sampled_from("XY"), st.floats(0.0, MAX_SQUEEZING)),
        st.builds(lambda m, p: Element("ps", (m,), (p,)), mode, st.floats(-7.0, 7.0)),
        st.builds(lambda m, e: Element("loss", (m,), (e,)), mode, st.floats(0.0, 1.0)),
    )
    if len(names) > 1:
        two_modes = st.lists(mode, min_size=2, max_size=2, unique=True).map(tuple)
        element = element | st.builds(lambda ms, t: Element("bs", ms, (t,)),
                                      two_modes, st.floats(-7.0, 7.0))
    elements = draw(st.lists(element, max_size=30))
    outputs = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
    return NetworkSpec(names, tuple(elements), tuple(outputs))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(wide_network_specs())
def test_elaborate_matches_dense_channel_composition(spec):
    """Updating only the touched rows and columns equals T V T^t + N per element."""
    expected = _dense_elaborate(spec)
    state = elaborate(spec)
    assert state.n_modes == len(spec.outputs)
    assert not state.mean.any()
    tol = 1e-12 * max(1.0, np.linalg.norm(expected))
    assert np.max(np.abs(state.cov - expected)) <= tol


@pytest.mark.parametrize("element, message", [
    (Element("sq", ("a",), (10.5,), "X"), "squeezing parameter"),
    (Element("sq", ("a",), (-0.1,), "Y"), "squeezing parameter"),
    (Element("sq", ("a",), (0.5,), "Z"), "'Z' is not a valid Axis"),
    (Element("loss", ("b",), (1.5,)), "efficiency"),
    (Element("loss", ("b",), (-0.5,)), "efficiency"),
    (Element("bs", ("a", "a"), (0.3,)), "two distinct modes"),
    (Element("ps", ("z",), (0.3,)), "undeclared label 'z'"),
])
def test_elements_built_in_code_are_range_checked(element, message):
    """The parser's range checks also hold for Elements that skip the parser."""
    with pytest.raises(ValueError, match=message):
        elaborate(NetworkSpec(("a", "b"), (element,), ("a",)))


def test_elaborate_physicality_error_locates_the_fault(monkeypatch):
    """A contracting phase-shift block (no compensating noise) fails the one
    output check, which names the element count, eigenvalue and floor."""
    contraction = dataclasses.replace(
        network._KINDS["ps"], block=lambda phi: (0.5 * np.eye(2), None))
    monkeypatch.setitem(network._KINDS, "ps", contraction)
    spec = parse_network("mode a\nmode b\nsq b X 0.3\nps a 0.0\nout b\n")
    with pytest.raises(PhysicalityError,
                       match=r"network output after 2 elements .* smallest eigenvalue "
                             r"-0\.1875 .* floor -1e-09"):
        elaborate(spec)
