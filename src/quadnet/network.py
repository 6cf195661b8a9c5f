"""Declarative optical-network descriptions and their elaboration.

A network is a list of mode declarations, elements (squeezers, beam
splitters, phase shifts, losses), and one output declaration.  Networks
can be written in a small line-oriented text format (``.net`` files),
built programmatically, or produced by :func:`build_experiment_network`,
which encodes the four-mode squeezed-light experiment: four squeezers
feeding a three-splitter array whose phase settings select either the
cluster or the GHZ output state.

Beam-splitter sign and phase-placement conventions are not fixed a
priori: :func:`resolve_conventions` searches the finite convention space
for the unique-up-to-symmetry choice that reproduces the closed-form
variances of both families, and the shipped ``data/convention.json``
records the result.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .criteria import FAMILIES, GainVector, _family, closed_form, combination_forms
from .errors import (
    ConventionSearchError,
    NetworkFormatError,
    NetworkParseError,
    ParameterRangeError,
    UndeclaredLabelError,
    UnknownKeywordError,
)
from .states import (
    GaussianChannel,
    GaussianState,
    MAX_SQUEEZING,
    apply,
    beam_splitter,
    loss_channel,
    phase_shift,
    squeezer,
    vacuum,
)

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class _Kind:
    """Element kind: ``<kind> <mode>... [<axis>] <param>`` with ``arity`` modes,
    an X/Y token if ``axis``, ``param`` in ``[0, upper]`` if ``limits`` is
    ``(name, upper)``, and the map ``channel(n, *indices, param, *axis)``."""

    arity: int
    axis: bool
    limits: tuple[str, float] | None
    channel: Callable[..., GaussianChannel]


# The channel functions are looked up in this module's globals at call time, so a
# wrapper installed over e.g. ``network.squeezer`` sees every element.
_KINDS = {
    "sq": _Kind(1, True, ("squeezing parameter", MAX_SQUEEZING),
                lambda *args: squeezer(*args)),
    "bs": _Kind(2, False, None, lambda *args: beam_splitter(*args)),
    "ps": _Kind(1, False, None, lambda *args: phase_shift(*args)),
    "loss": _Kind(1, False, ("efficiency", 1), lambda *args: loss_channel(*args)),
}


@dataclass(frozen=True)
class Element:
    """One network element: kind, mode labels it touches, numeric parameters.

    ``kind`` keys the element-kind table ``_KINDS`` (``sq``, ``bs``, ``ps``,
    ``loss``), which fixes the mode count, whether ``axis`` ("X" or "Y") is
    used, the range of the one parameter (r, theta, phi or eta), and the channel.
    """

    kind: str
    modes: tuple[str, ...]
    params: tuple[float, ...] = ()
    axis: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    def _axis_args(self) -> tuple[str, ...]:
        return (self.axis,) if _KINDS[self.kind].axis else ()


@dataclass(frozen=True)
class NetworkSpec:
    """Validated network: declared modes, ordered elements, output labels.

    ``aliases`` maps extra labels (internal line names, output-port names)
    to mode indices; it is carried for reporting but excluded from
    equality, so a parsed file compares equal to a built spec.
    """

    mode_names: tuple[str, ...]
    elements: tuple[Element, ...]
    outputs: tuple[str, ...]
    aliases: Mapping[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        names = tuple(self.mode_names)
        elements = tuple(self.elements)
        outputs = tuple(self.outputs)
        if not names:
            raise ValueError("network declares no modes")
        if len(set(names)) != len(names):
            raise ValueError("duplicate mode names")
        aliases = dict(self.aliases)
        for alias, idx in aliases.items():
            if alias in names:
                raise ValueError(f"alias {alias!r} collides with a declared mode")
            if not 0 <= idx < len(names):
                raise ValueError(f"alias {alias!r} points at invalid index {idx}")
        label_map = {n: i for i, n in enumerate(names)} | aliases
        for el in elements:
            for m in el.modes:
                if m not in label_map:
                    raise ValueError(f"element references undeclared label {m!r}")
        if not outputs:
            raise ValueError("network declares no outputs")
        out_idx = []
        for name in outputs:
            if name not in label_map:
                raise ValueError(f"output references undeclared label {name!r}")
            out_idx.append(label_map[name])
        if len(set(out_idx)) != len(out_idx):
            raise ValueError("outputs must map to distinct modes")
        object.__setattr__(self, "mode_names", names)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "aliases", aliases)

    @property
    def n_modes(self) -> int:
        return len(self.mode_names)

    @property
    def label_map(self) -> dict[str, int]:
        """Every usable label (declared names and aliases) to its mode index."""
        return {n: i for i, n in enumerate(self.mode_names)} | dict(self.aliases)

    def index(self, label: str) -> int:
        try:
            return self.label_map[label]
        except KeyError:
            raise ValueError(f"unknown mode label {label!r}") from None


# --- text format -------------------------------------------------------------


def parse_network(text: str) -> NetworkSpec:
    """Parse the line-oriented network format into a NetworkSpec.

    Grammar (one statement per line, ``#`` starts a comment):

        mode <name>
        sq <mode> <axis> <r>
        bs <mode1> <mode2> <theta>
        ps <mode> <phi>
        loss <mode> <eta>
        out <name> [<name> ...]

    Exactly one ``out`` statement is required and it must come last.
    Errors carry the offending line and column.
    """
    modes: list[str] = []
    elements: list[Element] = []
    outputs: tuple[str, ...] | None = None
    out_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        if outputs is not None:
            raise NetworkFormatError(
                f"statement after the out declaration on line {out_line}",
                lineno, tokens[0][1])
        keyword, col = tokens[0]
        args = tokens[1:]
        if keyword in _KINDS:
            elements.append(_parse_element(keyword, args, modes, lineno, col))
        elif keyword == "mode":
            _need_args(keyword, args, 1, lineno, col)
            name, ncol = args[0]
            if name in modes:
                raise NetworkFormatError(f"mode {name!r} already declared", lineno, ncol)
            modes.append(name)
        elif keyword == "out":
            if not args:
                raise NetworkFormatError("out needs at least one mode", lineno, col)
            seen: list[str] = []
            for name, ncol in args:
                _declared((name, ncol), modes, lineno)
                if name in seen:
                    raise NetworkFormatError(
                        f"duplicate output {name!r}", lineno, ncol)
                seen.append(name)
            outputs = tuple(seen)
            out_line = lineno
        else:
            raise UnknownKeywordError(f"unknown keyword {keyword!r}", lineno, col)

    if outputs is None:
        raise NetworkFormatError("no output declaration", max(out_line, 1), 1)
    try:
        return NetworkSpec(tuple(modes), tuple(elements), outputs)
    except ValueError as exc:  # pragma: no cover - parse already validates
        raise NetworkFormatError(str(exc), 1, 1) from None


def _parse_element(keyword, args, modes, lineno, col) -> Element:
    kind = _KINDS[keyword]
    _need_args(keyword, args, kind.arity + kind.axis + 1, lineno, col)
    names = tuple(_declared(token, modes, lineno) for token in args[:kind.arity])
    if len(set(names)) != len(names):
        raise NetworkFormatError(
            f"{keyword} needs {kind.arity} distinct modes", lineno, args[1][1])
    axis = None
    if kind.axis:
        axis, acol = args[kind.arity]
        if axis not in ("X", "Y"):
            raise ParameterRangeError(
                f"squeezing axis must be X or Y, got {axis!r}", lineno, acol)
    value = _number(args[-1], lineno)
    if kind.limits is not None:
        name, upper = kind.limits
        if not 0.0 <= value <= upper:
            raise ParameterRangeError(
                f"{name} {value} outside [0, {upper}]", lineno, args[-1][1])
    return Element(keyword, names, (value,), axis)


def _need_args(keyword, args, count, lineno, col):
    if len(args) != count:
        raise NetworkFormatError(
            f"{keyword} takes {count} argument{'s' if count != 1 else ''}, "
            f"got {len(args)}", lineno, col)


def _declared(token, modes, lineno):
    name, col = token
    if name not in modes:
        raise UndeclaredLabelError(f"undeclared mode {name!r}", lineno, col)
    return name


def _number(token, lineno):
    text, col = token
    try:
        value = float(text)
    except ValueError:
        raise NetworkFormatError(f"expected a number, got {text!r}", lineno, col) from None
    if not math.isfinite(value):
        raise ParameterRangeError(f"parameter {text!r} is not finite", lineno, col)
    return value


def serialize_network(spec: NetworkSpec) -> str:
    """Render a NetworkSpec in the text format; parse round-trips exactly."""
    lines = [f"mode {name}" for name in spec.mode_names]
    for el in spec.elements:
        lines.append(" ".join((el.kind, *el.modes, *el._axis_args(), repr(el.params[0]))))
    lines.append("out " + " ".join(spec.outputs))
    return "\n".join(lines) + "\n"


# --- elaboration -------------------------------------------------------------


def _element_channel(el: Element, index: Mapping[str, int], n: int) -> GaussianChannel:
    modes = [index[m] for m in el.modes]
    return _KINDS[el.kind].channel(n, *modes, el.params[0], *el._axis_args())


def _restrict(state: GaussianState, modes: Sequence[int]) -> GaussianState:
    """Trace out all but the given modes (covariance sub-block extraction)."""
    n = state.n_modes
    flat = list(modes) + [m + n for m in modes]
    return GaussianState(
        len(modes), state.mean[flat], state.cov[np.ix_(flat, flat)])


def elaborate(spec: NetworkSpec) -> GaussianState:
    """Apply the elements in order to vacuum; return the output-mode state.

    Output modes appear in declaration order of the ``out`` statement;
    all other modes are traced out.
    """
    index = spec.label_map
    n = spec.n_modes
    state = vacuum(n)
    for el in spec.elements:
        state = apply(state, _element_channel(el, index, n))
    out_idx = [index[name] for name in spec.outputs]
    if len(out_idx) == n and out_idx == list(range(n)):
        return state
    return _restrict(state, out_idx)


# --- the four-mode experiment ------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of the four-mode squeezed-light experiment.

    ``target`` selects the beam-splitter phase settings ("cluster" or
    "ghz"); ``r`` is the common squeezing parameter; ``efficiencies`` are
    per-output-port intensity transmissions modeling detection loss;
    ``gains`` is a GainVector or the string "optimal" (resolved at the
    configured r); the analysis frequency is carried as metadata.
    """

    target: str
    r: float
    efficiencies: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    gains: GainVector | str = "optimal"
    analysis_frequency_hz: float = 2e6

    def __post_init__(self):
        _family(self.target)
        if not 0.0 <= self.r <= MAX_SQUEEZING:
            raise ValueError(f"squeezing parameter must lie in [0, {MAX_SQUEEZING}]")
        effs = tuple(float(e) for e in self.efficiencies)
        if len(effs) != 4:
            raise ValueError("exactly four efficiencies required")
        if any(not 0.0 <= e <= 1.0 for e in effs):
            raise ValueError("efficiencies must lie in [0, 1]")
        if isinstance(self.gains, str) and self.gains != "optimal":
            raise ValueError("gains must be a GainVector or 'optimal'")
        object.__setattr__(self, "efficiencies", effs)

    def resolved_gains(self) -> GainVector:
        if isinstance(self.gains, GainVector):
            return self.gains
        return GainVector.optimal(self.target, self.r)


_QUARTERS = (0, 1, 2, 3)


@dataclass(frozen=True)
class PhaseConvention:
    """Discrete sign/placement choices left open by a relative-phase setting.

    For each of the three beam splitters: which input port carries the
    nominal relative phase (``bs_phase_ports``), with which sign
    (``bs_phase_signs``), and which output line carries the difference
    (``bs_minus_ports``).  ``output_quarter_turns`` applies a final
    per-output phase of q*(pi/2).  The space has 4^3 * 2^3 * 4^4
    members (phase port x sign is the 4-way choice per splitter).
    """

    bs_phase_ports: tuple[int, int, int]
    bs_phase_signs: tuple[int, int, int]
    bs_minus_ports: tuple[int, int, int]
    output_quarter_turns: tuple[int, int, int, int]

    def __post_init__(self):
        for name, values, allowed in (
            ("bs_phase_ports", self.bs_phase_ports, (0, 1)),
            ("bs_phase_signs", self.bs_phase_signs, (-1, 1)),
            ("bs_minus_ports", self.bs_minus_ports, (0, 1)),
            ("output_quarter_turns", self.output_quarter_turns, _QUARTERS),
        ):
            values = tuple(int(v) for v in values)
            expected = 4 if name == "output_quarter_turns" else 3
            if len(values) != expected:
                raise ValueError(f"{name} needs {expected} entries")
            if any(v not in allowed for v in values):
                raise ValueError(f"{name} entries must be in {allowed}")
            object.__setattr__(self, name, values)

    def to_json_dict(self) -> dict:
        return {
            "bs_phase_ports": list(self.bs_phase_ports),
            "bs_phase_signs": list(self.bs_phase_signs),
            "bs_minus_ports": list(self.bs_minus_ports),
            "output_quarter_turns": list(self.output_quarter_turns),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PhaseConvention":
        try:
            return cls(
                tuple(data["bs_phase_ports"]),
                tuple(data["bs_phase_signs"]),
                tuple(data["bs_minus_ports"]),
                tuple(data["output_quarter_turns"]),
            )
        except KeyError as exc:
            raise ValueError(f"convention data misses field {exc}") from None


def _compiled_bs_elements(
    m1: str, m2: str, theta: float, port: int, sign: int, minus: int
) -> list[Element]:
    """Express one convention-resolved beam splitter as grammar elements.

    The primitive ``bs`` element rotates its second input by the given
    angle and puts the difference on the second line, so a phase on the
    first port becomes a leading ``ps`` and a difference on the first
    line becomes an extra pi on the second input.
    """
    phase = sign * theta
    elements: list[Element] = []
    bs_theta = 0.0
    if port == 1:
        bs_theta = phase
    elif phase != 0.0:
        elements.append(Element("ps", (m1,), (phase,)))
    if minus == 0:
        bs_theta += math.pi
    elements.append(Element("bs", (m1, m2), (bs_theta,)))
    return elements


_MODE_NAMES = ("a1", "a2", "a3", "a4")
_SQUEEZE_AXES = ("Y", "X", "X", "Y")
# Beam-splitter wiring: (first input line, second input line); the first
# splitter mixes the two X-squeezed modes, the second attaches the first
# Y-squeezed mode to the sum line, the third the other Y-squeezed mode to
# the difference line.
_BS_WIRING = ((1, 2), (0, 1), (3, 2))
# Output ports 1..4 read these lines, in order.
_OUTPUT_LINES = (0, 1, 3, 2)
_ALIASES = {"a5": 1, "a6": 2, "b1": 0, "b2": 1, "b3": 3, "b4": 2}


def _bs_thetas(target: str, bs1_theta: float = _HALF_PI) -> tuple[float, float, float]:
    """Nominal relative phases of the three splitters for a target family."""
    return (bs1_theta, 0.0, _family(target).third_phase)


def build_experiment_network(
    config: ExperimentConfig, convention: PhaseConvention | None = None
) -> NetworkSpec:
    """Network of the four-mode experiment under a phase convention.

    Four single-mode squeezers (Y, X, X, Y) feed three balanced beam
    splitters; the first mixes the X-squeezed pair with relative phase
    pi/2, the other two attach the Y-squeezed modes with relative phases
    (0, pi/2) for the cluster target or (0, 0) for GHZ.  The convention
    (default: the resolved one shipped with the package) fixes phase
    placement, signs, difference ports, and final output rotations.
    Losses from ``config.efficiencies`` act on the output ports.
    """
    if convention is None:
        convention = default_convention()
    thetas = _bs_thetas(config.target)
    elements: list[Element] = [
        Element("sq", (name,), (config.r,), axis)
        for name, axis in zip(_MODE_NAMES, _SQUEEZE_AXES)
    ]
    for k, (i, j) in enumerate(_BS_WIRING):
        elements.extend(_compiled_bs_elements(
            _MODE_NAMES[i], _MODE_NAMES[j], thetas[k],
            convention.bs_phase_ports[k], convention.bs_phase_signs[k],
            convention.bs_minus_ports[k]))
    for port, q in enumerate(convention.output_quarter_turns):
        if q:
            elements.append(Element(
                "ps", (_MODE_NAMES[_OUTPUT_LINES[port]],), (q * _HALF_PI,)))
    for port, eta in enumerate(config.efficiencies):
        if eta < 1.0:
            elements.append(Element(
                "loss", (_MODE_NAMES[_OUTPUT_LINES[port]],), (eta,)))
    outputs = tuple(_MODE_NAMES[line] for line in _OUTPUT_LINES)
    return NetworkSpec(_MODE_NAMES, tuple(elements), outputs, dict(_ALIASES))


def simulate_experiment(
    config: ExperimentConfig, convention: PhaseConvention | None = None
) -> GaussianState:
    """Elaborated output state of the experiment network."""
    return elaborate(build_experiment_network(config, convention))


# --- convention resolution ---------------------------------------------------

_SEARCH_RS = (0.1, 0.402, 1.0)
_SEARCH_MULTS = (0.0, 1.0, 1.5)


def _squeeze_amplitudes(r: float) -> np.ndarray:
    """Diagonal amplitude factors of the four squeezers (X block, Y block)."""
    out = np.empty(8)
    for k, axis in enumerate(_SQUEEZE_AXES):
        sq = math.exp(-r)
        anti = math.exp(r)
        out[k] = anti if axis == "Y" else sq
        out[k + 4] = sq if axis == "Y" else anti
    return out


def _core_matrix(target: str, ports, signs, minuses, bs1_theta: float) -> np.ndarray:
    """8x8 transform of the three beam splitters under one candidate choice."""
    thetas = _bs_thetas(target, bs1_theta)
    T = np.eye(8)
    for k, (i, j) in enumerate(_BS_WIRING):
        for el in _compiled_bs_elements(
                _MODE_NAMES[i], _MODE_NAMES[j], thetas[k],
                ports[k], signs[k], minuses[k]):
            T = _element_channel(el, {n: m for m, n in enumerate(_MODE_NAMES)}, 4).T @ T
    return T


_ROT_TABLE = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # cos, sin per quarter


def _rotation_contributions(tT: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-output-port, per-quarter-turn contributions to T^t R^t c.

    ``coeffs`` indexes output ports (the basis of the combination forms),
    while the transform columns index physical lines; ports read lines
    through ``_OUTPUT_LINES`` and each port's rotation acts on its line.
    Returns shape (4 ports, 4 quarters, 8); summing one quarter choice per
    port gives the transformed coefficient vector for that rotation.
    """
    contrib = np.empty((4, 4, 8))
    for port, line in enumerate(_OUTPUT_LINES):
        cx, cy = coeffs[port], coeffs[port + 4]
        col_x, col_y = tT[:, line], tT[:, line + 4]
        for q, (c, s) in enumerate(_ROT_TABLE):
            # (R^t c) components on the port's line for a rotation by q*pi/2
            contrib[port, q] = col_x * (c * cx - s * cy) + col_y * (s * cx + c * cy)
    return contrib


def _grid_checks(
    rs: Sequence[float], mults: Sequence[float]
) -> dict[str, list[tuple[np.ndarray, np.ndarray, float]]]:
    """Per family: list of (form coefficients, squeeze amplitudes, target)."""
    checks: dict[str, list[tuple[np.ndarray, np.ndarray, float]]] = {}
    for family in FAMILIES:
        rows = []
        for r in rs:
            amps = _squeeze_amplitudes(r)
            for mult in mults:
                gains = GainVector.optimal(family, r).scaled(mult)
                targets = closed_form(family, r, gains)
                for form, target in zip(combination_forms(family, gains), targets):
                    rows.append((form.coeffs, amps, target))
        checks[family] = rows
    return checks


def resolve_conventions(
    target: str | None = None,
    *,
    rs: Sequence[float] = _SEARCH_RS,
    gain_multipliers: Sequence[float] = _SEARCH_MULTS,
    tol: float = 1e-9,
    bs1_theta: float = _HALF_PI,
) -> PhaseConvention:
    """Search the convention space for choices reproducing the closed forms.

    Every candidate (phase port, phase sign, difference port per splitter;
    quarter-turn per output) is checked against the closed-form variances
    of BOTH families over the grid ``rs`` x ``gain_multipliers`` (gains are
    the per-family optimal values scaled by each multiplier); a candidate
    must match all six combinations everywhere to within ``tol``.  The
    first match in ascending lexicographic order of

        (ports, signs, minus ports, quarter turns)

    is returned, so the result is deterministic.  ``target`` is accepted
    for call-site clarity but the search always validates both families,
    which share every choice (only the nominal splitter phases differ).
    Raises ConventionSearchError when nothing matches — that signals a
    defect in the element definitions, not a tolerable condition.
    """
    if target is not None:
        _family(target)
    checks = _grid_checks(rs, gain_multipliers)
    quarter_shape = (4, 4, 4, 4)

    for ports in itertools.product((0, 1), repeat=3):
        for signs in itertools.product((-1, 1), repeat=3):
            for minuses in itertools.product((0, 1), repeat=3):
                alive = np.ones(quarter_shape, dtype=bool)
                for family in FAMILIES:
                    tT = _core_matrix(family, ports, signs, minuses, bs1_theta).T
                    for coeffs, amps, target_value in checks[family]:
                        contrib = _rotation_contributions(tT, coeffs)
                        pair01 = contrib[0][:, None, :] + contrib[1][None, :, :]
                        pair23 = contrib[2][:, None, :] + contrib[3][None, :, :]
                        total = (pair01[:, :, None, None, :]
                                 + pair23[None, None, :, :, :])
                        variances = 0.25 * np.sum((total * amps) ** 2, axis=-1)
                        alive &= np.abs(variances - target_value) <= tol
                        if not alive.any():
                            break
                    if not alive.any():
                        break
                if alive.any():
                    flat = int(np.argmax(alive))  # first True in C order = lex order
                    quarters = np.unravel_index(flat, quarter_shape)
                    return PhaseConvention(
                        ports, signs, minuses, tuple(int(q) for q in quarters))
    raise ConventionSearchError(
        "no phase convention reproduces the closed-form variances; "
        "the beam-splitter matrix definitions are inconsistent")


def convention_max_error(
    convention: PhaseConvention,
    *,
    rs: Sequence[float],
    gain_multipliers: Sequence[float] = (1.0,),
    families: Sequence[str] = FAMILIES,
) -> float:
    """Worst |simulated - closed form| over a grid, via full elaboration.

    Exercises the element-compilation path end to end, so it also guards
    against drift between the search's fast evaluation and `elaborate`.
    """
    from .states import combination_variance

    worst = 0.0
    for family in families:
        for r in rs:
            for mult in gain_multipliers:
                gains = GainVector.optimal(family, float(r)).scaled(mult)
                state = simulate_experiment(
                    ExperimentConfig(family, float(r), gains=gains), convention)
                targets = closed_form(family, float(r), gains)
                for form, target in zip(combination_forms(family, gains), targets):
                    worst = max(worst, abs(combination_variance(state, form) - target))
    return worst


def default_convention() -> PhaseConvention:
    """The resolved convention shipped with the package."""
    data = json.loads(
        resources.files("quadnet").joinpath("data/convention.json").read_text())
    return PhaseConvention.from_json_dict(data)


def packaged_network(target: str) -> NetworkSpec:
    """Parse the shipped ``cluster.net`` / ``ghz.net`` reference file."""
    _family(target)
    text = resources.files("quadnet").joinpath(f"data/{target}.net").read_text()
    return parse_network(text)
