"""Tests for network parsing, elaboration, and the experiment builder.

Frozen numeric expectations come from the independent closed-form oracle
(0.5*exp(-2r) = 0.2237676191 at r = 0.402; uniform loss eta*v + (1-eta)*snl).
"""

import dataclasses
import math
import zlib
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnet.criteria import (
    GainVector,
    _family,
    closed_form,
    combination_forms,
    criterion_totals,
)
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
    GaussianChannel,
    GaussianState,
    QuadForm,
    apply,
    beam_splitter,
    combination_variance,
    db_rel_snl,
    is_physical,
    loss_channel,
    phase_shift,
    squeezer,
    vacuum,
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


@pytest.mark.parametrize("text, error, line, column, message", [
    ("mode a\nout a\n\t  sq a X 0.1\n", NetworkFormatError, 3, 4,
     "statement after the out declaration on line 2"),
    ("mode a\n  \tsqueeze a Y 0.1\nout a\n", UnknownKeywordError, 2, 4,
     "unknown keyword 'squeeze'"),
    ("  mode\ta  b\nout a\n", NetworkFormatError, 1, 3, "mode takes 1 argument, got 2"),
    ("mode a\nmode\t\ta\nout a\n", NetworkFormatError, 2, 7, "mode 'a' already declared"),
    ("mode a\n   out   # nothing\n", NetworkFormatError, 2, 4, "out needs at least one mode"),
    ("mode a\nout  a\tz\n", UndeclaredLabelError, 2, 8, "undeclared mode 'z'"),
    ("mode a\nmode b\nout a b  a\n", NetworkFormatError, 3, 10, "duplicate output 'a'"),
    ("mode a\nsq a X 0.1\n\n# end\n", NetworkFormatError, 4, 1, "no output declaration"),
    ("mode a\n\tps a 0.1 0.2\nout a\n", NetworkFormatError, 2, 2,
     "ps takes 2 arguments, got 3"),
    ("mode a\nbs a   q 0.3\nout a\n", UndeclaredLabelError, 2, 8, "undeclared mode 'q'"),
    ("mode a\nbs  a\ta 0.3\nout a\n", NetworkFormatError, 2, 7, "bs needs 2 distinct modes"),
    ("mode a\nsq a\t Z 0.1\nout a\n", ParameterRangeError, 2, 7,
     "squeezing axis must be X or Y, got 'Z'"),
    ("mode a\nps  a  abc\nout a\n", NetworkFormatError, 2, 8, "expected a number, got 'abc'"),
    ("mode a\nloss a\t\tinf\nout a\n", ParameterRangeError, 2, 9,
     "parameter 'inf' is not finite"),
    ("mode a\nloss a    1.5\nout a\n", ParameterRangeError, 2, 11,
     "efficiency 1.5 outside [0, 1]"),
    ("mode a\nsq a Y   99  # strong\nout a\n", ParameterRangeError, 2, 10,
     "squeezing parameter 99.0 outside [0, 10.0]"),
])
def test_parse_errors_name_their_line_and_column(text, error, line, column, message):
    """Every parse error's class, line, column and message, on lines whose
    tokens are separated by tabs and runs of spaces; a missing ``out`` is
    reported at the last line."""
    with pytest.raises(NetworkParseError) as err:
        parse_network(text)
    assert type(err.value) is error
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


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
    assert cfg.resolved_gains() == GainVector.optimal("ghz", 0.402)
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
    assert db_rel_snl(combination_variance(st, form), form) == pytest.approx(YDIFF_DB_R0402,
                                                                             abs=1e-6)


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
    assert db_rel_snl(combination_variance(st, form), form) == pytest.approx(-1.2605424,
                                                                             abs=1e-6)
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


# --- elaboration against the dense channel composition ------------------------


def _dense_elaborate(spec):
    """Reference: compose the public dense channels, ``V -> T V T^t + N``.
    Returns the output covariance and the largest norm of the covariances
    formed on the way, which sets the reference's own rounding error."""
    index, n = spec.label_map, spec.n_modes
    cov = 0.25 * np.eye(2 * n)
    largest = np.linalg.norm(cov)
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
        largest = max(largest, np.linalg.norm(cov))
    out = [index[name] for name in spec.outputs]
    flat = out + [m + n for m in out]
    return cov[np.ix_(flat, flat)], largest


@st.composite
def wide_network_specs(draw, max_elements=30):
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
    elements = draw(st.lists(element, max_size=max_elements))
    outputs = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
    return NetworkSpec(names, tuple(elements), tuple(outputs))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(wide_network_specs(max_elements=150))
def test_each_step_equals_its_kinds_builder_on_that_element_alone(spec):
    """The blocks that ``_steps`` builds one kind at a time are bit for bit the
    builder's block on each element's own parameter, and the indices
    ``_touched`` gives."""
    steps = network._steps(spec)
    assert len(steps) == len(spec.elements)
    for el, (L, noise, idx) in zip(spec.elements, steps):
        want_L, want_noise = network._KINDS[el.kind].block(el.params[0], *el._axis_args())
        assert L.shape == want_L.shape and np.array_equal(L, want_L)
        assert (noise is None) == (want_noise is None)
        assert noise is None or np.array_equal(noise, want_noise)
        modes = [spec.label_map[m] for m in el.modes]
        assert np.array_equal(idx, [*modes, *(m + spec.n_modes for m in modes)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(wide_network_specs())
# the splitters cancel, so the output is vacuum, which the reference reaches
# through entries of 0.25 e^18 and misses by 1.6e-10
@example(parse_network("mode m0\nmode m1\nsq m1 X 3\nsq m1 X 6\n"
                       "bs m0 m1 0\nbs m0 m1 0\nout m0\n"))
def test_elaborate_matches_dense_channel_composition(spec):
    """The Gram form of the carried output rows equals T V T^t + N per element,
    and the backward pass gives c^t V c of that covariance for random rows c, to
    a tolerance scaled by the largest covariance the reference forms."""
    expected, largest = _dense_elaborate(spec)
    state = elaborate(spec)
    assert state.n_modes == len(spec.outputs)
    assert not state.mean.any()
    tol = 1e-12 * max(1.0, largest)
    assert np.max(np.abs(state.cov - expected)) <= tol
    rng = np.random.default_rng(zlib.crc32(serialize_network(spec).encode()))
    rows = rng.standard_normal((5, expected.shape[0]))
    variances = network._propagate(spec, rows)
    quadratic = np.einsum("ki,ij,kj->k", rows, expected, rows)
    assert np.all(np.abs(variances - quadratic) <= tol * (rows * rows).sum(axis=1))


def _fancy_backward(steps, rows):
    """The backward pass written with fancy indexing, ``rows[..., idx]``: the
    reference whose bits ``network._backward`` keeps.  Overwrites ``rows``."""
    variances = np.zeros(rows.shape[:-1])
    for L, noise, idx in reversed(steps):
        if noise is not None:
            variances += (rows[..., idx] ** 2) @ noise
        rows[..., idx] = rows[..., idx] @ L
    return variances + 0.25 * (rows * rows).sum(axis=-1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(wide_network_specs(max_elements=150))
def test_passes_give_the_bits_of_fancy_indexing(spec):
    """The backward pass gives the bytes of the fancy-indexed pass, whose
    gathered operands are laid out as its are; ``_propagate`` raises where it
    overflows."""
    rng = np.random.default_rng(zlib.crc32(serialize_network(spec).encode()))
    rows = rng.standard_normal((5, 2 * len(spec.outputs)))
    full = np.zeros((5, 2 * spec.n_modes))
    flat = [spec.label_map[name] for name in spec.outputs]
    flat += [m + spec.n_modes for m in flat]
    full[:, flat] = rows
    with np.errstate(over="ignore", invalid="ignore"):
        got = network._backward(network._steps(spec), full)
        want = _fancy_backward(network._steps(spec), full)
    if np.isfinite(want).all():
        assert got.tobytes() == want.tobytes()
        if network._layers(spec, None) is None:  # the stepwise pass
            assert network._propagate(spec, rows).tobytes() == got.tobytes()
    else:
        with pytest.raises(ValueError, match="double precision"):
            network._propagate(spec, rows)


def test_parsing_checks_each_element_once(monkeypatch):
    """Parsing N elements tests each one's parameter to be finite once, in the
    one shape check: N tests, not one by the parser and one by Element."""
    text = serialize_network(build_experiment_network(
        ExperimentConfig("ghz", 0.402, (0.9, 0.8, 0.7, 0.95))))
    tested = []
    monkeypatch.setattr(network, "math", SimpleNamespace(
        isfinite=lambda value: tested.append(value) or math.isfinite(value)))
    spec = parse_network(text)
    assert len(spec.elements) == 14
    assert tested == [el.params[0] for el in spec.elements]


@pytest.mark.parametrize("element, message", [
    (Element("sq", ("a",), (10.5,), "X"), "squeezing parameter"),
    (Element("sq", ("a",), (-0.1,), "Y"), "squeezing parameter"),
    (Element("sq", ("a",), (0.5,), "Z"), "'Z' is not a valid Axis"),
    (Element("loss", ("b",), (1.5,)), "efficiency"),
    (Element("loss", ("b",), (-0.5,)), "efficiency"),
    (Element("bs", ("a", "a"), (0.3,)), "two distinct modes"),
    (Element("ps", ("z",), (0.3,)), "undeclared label 'z'"),
    # shapes no kind takes fail when the Element is built
    (partial(Element, "sq", ("a",), (), "X"), "sq takes one finite parameter"),
    (partial(Element, "sq", ("a",), (0.3, 0.9), "X"), "sq takes one finite parameter"),
    (partial(Element, "loss", ("b",), (math.nan,)), "loss takes one finite parameter"),
    (partial(Element, "bs", ("a",), (0.3,)), "bs takes 2 mode"),
    (partial(Element, "ps", ("a",), (0.1,), "X"), "ps takes no axis, got 'X'"),
    (partial(Element, "sq", ("a",), (0.3,)), "sq takes an axis, got None"),
])
def test_elements_built_in_code_are_range_checked(element, message):
    """The parser's range checks also hold for Elements that skip the parser."""
    with pytest.raises(ValueError, match=message):
        if isinstance(element, partial):
            element = element()
        elaborate(NetworkSpec(("a", "b"), (element,), ("a",)))


def test_elements_built_in_code_report_the_first_fault_in_network_order():
    """Blocks are built one kind at a time, yet of two faulty elements the
    first in the network is reported: the loss, not the later squeezer of the
    axis whose first squeezer comes before it."""
    elements = (Element("sq", ("a",), (0.1,), "X"), Element("loss", ("b",), (1.5,)),
                Element("sq", ("a",), (10.5,), "X"))
    with pytest.raises(ValueError, match="efficiency"):
        elaborate(NetworkSpec(("a", "b"), elements, ("a",)))


def _stack(block, params):
    """``block`` repeated once per parameter of ``params``: the stack that a
    builder in ``_KINDS`` gives for an array of parameters."""
    return np.broadcast_to(block, (*np.shape(params), *np.shape(block)))


def test_elaborate_physicality_error_locates_the_fault(monkeypatch):
    """A contracting phase-shift block (no compensating noise) fails the block
    check, which names the element, its kind and mode, the eigenvalue and floor."""
    contraction = dataclasses.replace(
        network._KINDS["ps"], block=lambda phi: (_stack(0.5 * np.eye(2), phi), None))
    monkeypatch.setitem(network._KINDS, "ps", contraction)
    spec = parse_network("mode a\nmode b\nsq b X 0.3\nps a 0.0\nout b\n")
    with pytest.raises(PhysicalityError,
                       match=r"element 2 \(ps a\) violates .* smallest eigenvalue "
                             r"-0\.1875 .* floor -1e-09"):
        elaborate(spec)


@pytest.mark.parametrize("delta, physical", [(5e-10, True), (2e-9, False)])
def test_is_physical_shares_the_floor_of_apply_and_elaboration(monkeypatch, delta,
                                                               physical):
    """A one-mode state ``delta`` below vacuum, whose smallest eigenvalue of
    cov + (i/4) Sigma is -delta, is physical exactly when delta is within the
    1e-9 floor, for is_physical, apply and elaboration alike."""
    contraction = math.sqrt(1.0 - 4.0 * delta) * np.eye(2)
    assert is_physical(GaussianState(1, np.zeros(2), (0.25 - delta) * np.eye(2))) is physical
    monkeypatch.setitem(network._KINDS, "ps", dataclasses.replace(
        network._KINDS["ps"], block=lambda phi: (_stack(contraction, phi), None)))
    runs = (lambda: apply(vacuum(1), GaussianChannel(contraction, np.zeros((2, 2)))),
            lambda: elaborate(parse_network("mode a\nps a 0.0\nout a\n")))
    for run in runs:
        if physical:
            assert is_physical(run())
        else:
            with pytest.raises(PhysicalityError):
                run()


# --- the stacked path of sweep and predict_measured ---------------------------


def _per_r_sums(config, r):
    """Criterion sums at ``r`` from ``elaborate`` and c^t V c, one state at a time."""
    config = dataclasses.replace(config, r=r)
    state = simulate_experiment(config)
    forms = combination_forms(config.target, config.resolved_gains())
    return criterion_totals(config.target, [combination_variance(state, f) for f in forms])


_EFFICIENCY = st.floats(0.5, 1.0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(family=st.sampled_from(("cluster", "ghz")),
       rs=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=12),
       efficiencies=st.one_of(_EFFICIENCY.map(lambda e: (e,) * 4),
                              st.tuples(*[_EFFICIENCY] * 4)),
       gains=st.one_of(st.just("optimal"),
                       st.tuples(*[st.floats(-2.0, 2.0)] * 4).map(lambda g: GainVector(*g))))
def test_stacked_sums_match_per_r_elaboration(family, rs, efficiencies, gains):
    """The backward pass over a stack of r gives the sums of per-r elaboration
    and c^t V c to 1e-12 relative, at optimal or fixed gains, uniform or
    per-port loss."""
    config = ExperimentConfig(family, rs[0], efficiencies, gains)
    stacked = network._experiment_variances(config, rs)
    assert stacked.shape == (len(rs), 6)
    for r, variances in zip(rs, stacked.tolist()):
        got = criterion_totals(family, variances)
        assert got == pytest.approx(_per_r_sums(config, r), rel=1e-12, abs=0.0)


def test_sweep_across_a_chunk_boundary_matches_per_r_evaluation(tmp_path, monkeypatch):
    """A stack of 10 r-points gives the variances of one r at a time, and with
    chunks of 4 r-points a 10-step sweep spans three stacks whose CSV rows equal
    those of one r at a time."""
    from quadnet import cli
    from quadnet.calibration import predict_measured

    monkeypatch.setattr(cli, "_STACK", 4)
    stacks = []
    variances = cli._experiment_variances
    monkeypatch.setattr(cli, "_experiment_variances",
                        lambda config, chunk: stacks.append(len(chunk)) or variances(config, chunk))
    config = ExperimentConfig("cluster", 0.1, (0.9, 0.8, 0.7, 0.95))
    rs = [0.1 + 0.1 * k for k in range(10)]
    stacked = network._experiment_variances(config, rs)
    one_by_one = np.concatenate([network._experiment_variances(config, [r]) for r in rs])
    assert np.array_equal(stacked, one_by_one)

    argv = ["--out", str(tmp_path), "--no-timestamp", "sweep", "--family", "ghz",
            "--r-min", "0.1", "--r-max", "1.0", "--steps", "10",
            "--efficiencies", "0.9,0.8,0.7,0.95"]
    assert cli.main(argv) == 0
    rows = (tmp_path / "sweep_ghz.csv").read_text().splitlines()[5:]
    step = (1.0 - 0.1) / 9
    expected = []
    for r in (0.1 + k * step for k in range(10)):
        sums = predict_measured("ghz", r, (0.9, 0.8, 0.7, 0.95)).sums
        expected.append(f"{r:.6g}," + ",".join(f"{s:.10f}" for s in sums))
    assert rows == expected
    assert stacks == [4, 4, 2]


def test_stacked_path_checks_every_r_for_physicality(monkeypatch):
    """A squeezer block that contracts only at one r of the stack fails the
    stacked block check, which names the first squeezer and that r."""
    real = network._KINDS["sq"].block

    def contract_at_half(r, axis):
        L, noise = real(r, axis)
        return np.where(np.reshape(r, (-1, 1, 1)) == 0.5, 0.5 * np.eye(2), L), noise

    monkeypatch.setitem(network._KINDS, "sq",
                        dataclasses.replace(network._KINDS["sq"], block=contract_at_half))
    config = ExperimentConfig("ghz", 0.25)
    with pytest.raises(PhysicalityError,
                       match=r"element 1 \(sq a1\) at r = 0\.5 violates .* smallest "
                             r"eigenvalue -0\.1875 .* floor -1e-09"):
        network._experiment_variances(config, [0.25, 0.5, 0.75])
    assert network._experiment_variances(config, [0.25, 0.75]).shape == (2, 6)


def test_block_check_names_an_element_that_follows_stacked_squeezers(monkeypatch):
    """The block check stacks the 2 x 2 blocks of all kinds, three rows for each
    squeezer of a 3-r stack, and still names the one loss element at fault."""
    monkeypatch.setitem(network._KINDS, "loss", dataclasses.replace(
        network._KINDS["loss"], block=lambda eta: (_stack(0.5 * np.eye(2), eta),
                                                   _stack(np.zeros(2), eta))))
    config = ExperimentConfig("ghz", 0.25, (0.9, 1.0, 1.0, 1.0))
    with pytest.raises(PhysicalityError, match=r"^element 11 \(loss a1\) violates .* "
                                               r"smallest eigenvalue -0\.1875 "):
        network._experiment_variances(config, [0.25, 0.5, 0.75])


def test_block_check_names_the_first_element_at_fault_across_kinds(monkeypatch):
    """The blocks are built one kind at a time, yet with a contracting loss
    (element 2) and a phase shift that contracts at phi = 1 (element 3), the
    check still names element 2, the first in network order."""
    real = network._KINDS["ps"].block

    def contract_at_one(phi):
        L, noise = real(phi)
        return np.where(np.reshape(phi, (-1, 1, 1)) == 1.0, 0.5 * np.eye(2), L), noise

    monkeypatch.setitem(network._KINDS, "ps", dataclasses.replace(
        network._KINDS["ps"], block=contract_at_one))
    monkeypatch.setitem(network._KINDS, "loss", dataclasses.replace(
        network._KINDS["loss"], block=lambda eta: (_stack(0.5 * np.eye(2), eta),
                                                   _stack(np.zeros(2), eta))))
    spec = parse_network("mode a\nps a 0.0\nloss a 0.5\nps a 1.0\nout a\n")
    with pytest.raises(PhysicalityError, match=r"^element 2 \(loss a\) violates "):
        elaborate(spec)


def test_squeezers_of_several_r_before_the_packaged_tail_go_element_by_element():
    """An experiment network's squeezers take one r.  Built in code with the
    packaged tail but squeezers of different r, a network takes the stepwise
    pass, bit for bit, refuses a stack of r, which only the layered pass takes,
    and of two squeezers out of range it names the first in network order, a Y
    squeezer before an X one."""
    packaged = network.packaged_network("ghz")
    rows = np.random.default_rng(5).standard_normal((3, 8))

    def spec(*rs):
        head = tuple(Element("sq", el.modes, (r,), el.axis)
                     for el, r in zip(packaged.elements, rs))
        return NetworkSpec(packaged.mode_names, head + packaged.elements[len(rs):],
                           packaged.outputs)

    mixed = spec(0.3, 0.5, 0.7, 0.9)
    full = np.zeros((3, 8))
    full[:, [0, 1, 3, 2, 4, 5, 7, 6]] = rows  # the outputs a1 a2 a4 a3
    want = network._backward(network._steps(mixed), full)
    assert network._propagate(mixed, rows).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="needs a network of the layered shape"):
        network._propagate(mixed, rows, np.array([0.3, 0.5]))
    with pytest.raises(ValueError, match=r"got 12\.0$"):
        network._propagate(spec(12.0, 11.0, 0.3, 0.3), rows)


# --- the exact oracle ---------------------------------------------------------


def _exact_backward(steps, rows):
    """The backward pass over ``steps`` in exact rational arithmetic, each float
    block, noise and row entry taken as its exact rational: the variances the
    rounded blocks give with no further rounding, one Fraction per row of the
    (k, d) ``rows``."""
    exact = []
    for row in rows.tolist():
        row = [Fraction(c) for c in row]
        variance = Fraction(0)
        for L, noise, idx in reversed(steps):
            idx = idx.tolist()
            touched = [row[i] for i in idx]
            if noise is not None:
                variance += sum(Fraction(n) * t * t for n, t in zip(noise.tolist(), touched))
            block = [[Fraction(v) for v in line] for line in L.tolist()]
            for j, i in enumerate(idx):
                row[i] = sum(t * line[j] for t, line in zip(touched, block))
        exact.append(variance + sum(c * c for c in row) / 4)
    return exact


# Per-variance budgets, in ulps of the exact variance of the rounded blocks, by
# loss pattern: its per-port efficiencies, the r it is replayed at and its budget.
# Over these r the largest errors of the stepwise and the composed pass were 2.2
# and 2.8 ulps lossless, and 24.8 and 19.6 with the losses 0.9,0.8,0.7,0.95, whose
# noise terms add up rounded.  With 0.95,0.9,0.85,0.8, the losses of the simulate
# digests, they were 74.9 (GHZ, r = 9.85) and 49.0 (cluster, r = 8.95 + 1 ulp); a
# replay over the 201 r of linspace(0, 10, 201) found no larger one: the stepwise
# pass 74.7 (GHZ, r = 9.15) and 53.4 (cluster, r = 4.45), the composed and stacked
# passes 49.0 and 33.6 (GHZ, r = 4.5).  That pattern has its own budget, above 64,
# its worst case with 28% headroom; its r are those worst cases.
_ORACLE_R = (0.0, 0.402, 1.0, 2.5, 5.0, 7.5, 9.25, MAX_SQUEEZING)
_ORACLE = {
    "lossless": ((1.0,) * 4, _ORACLE_R, 4),
    "lossy": ((0.9, 0.8, 0.7, 0.95), _ORACLE_R, 64),
    "graded": ((0.95, 0.9, 0.85, 0.8),
               (0.0, 4.45, 4.5, 8.95, 8.950000000000001, 9.15, 9.85, 9.850000000000001,
                MAX_SQUEEZING), 96),
}


@pytest.mark.parametrize("losses, r", [(losses, r) for losses, (_, rs, _) in _ORACLE.items()
                                       for r in rs])
@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_variances_lie_within_their_ulp_budget_of_exact_arithmetic(family, losses, r):
    """Replayed in exact arithmetic, the experiment's checked steps give each
    combination's variance; the stepwise pass, the compiled map of ``_propagate``
    and its stack over every r of the loss pattern lie within its budget of it."""
    efficiencies, rs, budget = _ORACLE[losses]
    config = ExperimentConfig(family, r, efficiencies)
    spec = build_experiment_network(config)
    rows = _family(family).coefficients(GainVector.optimal(family, r))
    full = np.zeros((6, 8))
    flat = [spec.label_map[name] for name in spec.outputs]
    full[:, flat + [m + 4 for m in flat]] = rows
    steps = network._steps(spec)
    exact = _exact_backward(steps, full)
    stacked = network._experiment_variances(config, rs)[rs.index(r)]
    for name, got in (("stepwise", network._backward(steps, full)),
                      ("composed", network._propagate(spec, rows)), ("stacked", stacked)):
        ulps = [abs(Fraction(v) - e) / Fraction(math.ulp(float(e)))
                for v, e in zip(got.tolist(), exact)]
        assert max(ulps) <= budget, (name, [float(u) for u in ulps])


def _layered_network(r):
    """An 8-mode network of the layered shape at squeezing ``r``, from a fixed
    seed: a squeezer on every mode, a run of 40 phase shifts and splitters, and
    losses on four modes; every mode is an output, in shuffled order."""
    rng = np.random.default_rng(3)
    names = [f"m{k}" for k in range(8)]
    lines = [f"mode {name}" for name in names]
    lines += [f"sq {name} {axis} {r!r}" for name, axis in zip(names, rng.choice(["X", "Y"], 8))]
    for k in range(40):
        first, second = rng.permutation(8)[:2]
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        lines.append(f"bs m{first} m{second} {angle!r}" if k % 3 else f"ps m{first} {angle!r}")
    lines += [f"loss m{k} {float(eta)!r}"
              for k, eta in zip(rng.permutation(8)[:4], rng.uniform(0.5, 1.0, 4))]
    lines.append("out " + " ".join(names[k] for k in rng.permutation(8)))
    return parse_network("\n".join(lines) + "\n")


# Over the 201 r of linspace(0, 10, 201) the largest errors on this network were
# 21.7 ulps for the stepwise pass (r = 7.8) and 36.5 for the layered and stacked
# passes (r = 6.75), whose compiled map rounds its products once more before the
# squeezers stretch them; the budget is that worst case with 30% headroom, and
# these r include both worst cases.  Under OpenBLAS's Sandybridge kernels the
# stepwise pass reached 25.6 ulps at these r.
_LAYERED_R = (0.0, 0.402, 2.5, 5.0, 6.75, 7.800000000000001, 9.85, MAX_SQUEEZING)
_LAYERED_BUDGET = 48


@pytest.mark.parametrize("r", _LAYERED_R)
def test_a_parsed_layered_network_lies_within_its_ulp_budget_of_exact_arithmetic(r):
    """Replayed in exact arithmetic, a parsed 8-mode network of the layered shape
    gives each combination's variance: 3 random rows and the 8 rows that the
    passive run carries onto the squeezed quadratures, where the anti-squeezed
    terms cancel.  The stepwise pass, the layered pass of ``_propagate`` and its
    stack over every r lie within the budget of it."""
    spec = _layered_network(r)
    steps = network._steps(spec)
    run = network._tail_map(steps[8:48], 8)
    squeezed = [spec.label_map[el.modes[0]] + 8 * (el.axis == "Y") for el in spec.elements[:8]]
    full = np.vstack([np.random.default_rng(11).standard_normal((3, 16)), run[:, squeezed].T])
    flat = [spec.label_map[name] for name in spec.outputs]
    rows = full[:, flat + [m + 8 for m in flat]]
    exact = _exact_backward(steps, full)
    stacked = network._propagate(spec, rows, np.array(_LAYERED_R))[_LAYERED_R.index(r)]
    for name, got in (("stepwise", network._backward(steps, full)),
                      ("layered", network._propagate(spec, rows)), ("stacked", stacked)):
        ulps = [abs(Fraction(v) - e) / Fraction(math.ulp(float(e)))
                for v, e in zip(got.tolist(), exact)]
        assert max(ulps) <= _LAYERED_BUDGET, (name, [float(u) for u in ulps])


def _exact_forward(steps, n_modes):
    """The forward pass over ``steps`` from vacuum in exact rational arithmetic,
    each float block and noise entry taken as its exact rational: the full
    covariance, as lists of Fractions, that the rounded blocks give with no
    further rounding."""
    d = 2 * n_modes
    cov = [[Fraction(1, 4) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for L, noise, idx in steps:
        idx = idx.tolist()
        block = [[Fraction(v) for v in line] for line in L.tolist()]
        old = [cov[i] for i in idx]
        for line, i in zip(block, idx):
            cov[i] = [sum(b * row[j] for b, row in zip(line, old)) for j in range(d)]
        for row in cov:
            old = [row[i] for i in idx]
            for line, i in zip(block, idx):
                row[i] = sum(b * v for b, v in zip(line, old))
        if noise is not None:
            for i, v in zip(idx, noise.tolist()):
                cov[i][i] += Fraction(v)
    return cov


def _stepwise_network(r):
    """A parsed 5-mode network not of the layered shape, at squeezing ``r``:
    squeezers and losses between the splitters, and a traced-out mode ``e``."""
    return parse_network(
        "mode a\nmode b\nmode c\nmode d\nmode e\n"
        f"sq a Y {r!r}\nsq b X {r!r}\nbs a b 0.7853981633974483\nloss b 0.9\n"
        f"sq c X {r!r}\nbs b c 0.6\nps a 1.1\nsq d Y {r!r}\nbs c d 0.9\nloss d 0.8\n"
        f"bs d e 0.3\nsq e X {r!r}\nbs a d 0.5\nloss a 0.7\nout d a c b\n")


# The covariance's budget, normwise: its largest entry error relative to the
# largest exact entry, since entry-wise errors are meaningless on round-off
# zeros (1e-34 entries at r = 0).  Over these networks and r the worst was
# 2.7e-16 on the experiment and 4.7e-16 on the stepwise network (r = 5); under
# OpenBLAS's Sandybridge kernels the experiment reached 4.3e-16.
_COV_R = (0.0, 0.402, 2.0, 5.0, 8.5, MAX_SQUEEZING)
_COV_BUDGET = 1e-15


@pytest.mark.parametrize("r", _COV_R)
@pytest.mark.parametrize("family, losses", [(family, losses) for family in ("cluster", "ghz")
                                            for losses in _ORACLE] + [("stepwise", None)])
def test_elaborate_lies_within_its_cov_budget_of_exact_arithmetic(family, losses, r):
    """Replayed forward in exact arithmetic over the same checked steps, the
    experiment's output covariance, with each loss pattern of the oracle, and a
    stepwise network's lie within the budget of ``elaborate``'s, which is
    exactly symmetric."""
    spec = (_stepwise_network(r) if family == "stepwise" else
            build_experiment_network(ExperimentConfig(family, r, _ORACLE[losses][0])))
    out = [spec.label_map[label] for label in spec.outputs]
    flat = out + [m + spec.n_modes for m in out]
    exact = _exact_forward(network._steps(spec), spec.n_modes)
    exact = [[exact[i][j] for j in flat] for i in flat]
    cov = elaborate(spec).cov
    assert np.array_equal(cov, cov.T)
    error = max(abs(Fraction(c) - e) for got, want in zip(cov.tolist(), exact)
                for c, e in zip(got, want))
    scale = max(abs(e) for want in exact for e in want)
    assert error <= Fraction(_COV_BUDGET) * scale, float(error / scale)


@pytest.mark.parametrize("losses", list(_ORACLE))
@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_a_parsed_experiment_gives_the_bytes_of_the_built_one(monkeypatch, family, losses):
    """Serialized and parsed, an experiment network takes the layered pass as the
    built one does, with no _backward call, and gives its bytes at each r of a
    grid over [0, 10], for each loss pattern of the oracle."""
    monkeypatch.setattr(network, "_backward", lambda *a: pytest.fail("stepwise pass"))
    for r in np.linspace(0.0, MAX_SQUEEZING, 41).tolist():
        built = build_experiment_network(ExperimentConfig(family, r, _ORACLE[losses][0]))
        parsed = parse_network(serialize_network(built))
        rows = _family(family).coefficients(GainVector.optimal(family, r))
        assert network._propagate(parsed, rows).tobytes() == \
            network._propagate(built, rows).tobytes(), r
