"""Declarative optical-network descriptions and their elaboration.

A network is a list of mode declarations, elements (squeezers, beam
splitters, phase shifts, losses), and one output declaration.  Networks
can be written in a small line-oriented text format (``.net`` files),
built programmatically, or produced by :func:`build_experiment_network`,
which encodes the four-mode squeezed-light experiment: four squeezers
feeding a three-splitter array whose phase settings select either the
cluster or the GHZ output state.

The packaged ``data/cluster.net`` and ``data/ghz.net`` files are that
experiment at r = 0.402 with unit efficiencies; the builder reads them and
sets the squeezing and the detection losses of a configuration.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .criteria import GainVector, _family
from .errors import (
    NetworkFormatError,
    NetworkParseError,
    ParameterRangeError,
    UndeclaredLabelError,
    UnknownKeywordError,
)
from .states import (
    GaussianState,
    MAX_SQUEEZING,
    VACUUM_VARIANCE,
    _require_physical,
    _touched,
    beam_splitter_block,
    loss_block,
    phase_shift_block,
    squeezer_block,
)

@dataclass(frozen=True)
class _Kind:
    """Element kind: ``<kind> <mode>... [<axis>] <param>`` with ``arity`` modes,
    an X/Y token if ``axis``, ``param`` in ``[0, upper]`` if ``limits`` is
    ``(name, upper)``, and the local block ``block(param, *axis)`` on the
    touched quadratures (see :mod:`quadnet.states`)."""

    arity: int
    axis: bool
    limits: tuple[str, float] | None
    block: Callable[..., tuple[np.ndarray, np.ndarray | None]]


# ``elaborate`` applies these blocks in place.  The public channel builders
# (``states.squeezer`` ...) embed the same blocks into the identity; ``elaborate``
# calls neither them nor ``apply``, and ``is_physical`` once per network, so a
# wrapper installed over those sees exactly that.  The parser checks ``limits`` to
# report a line and column; the block builders check the same ranges again, so an
# Element built in code with e.g. r = 10.5 still fails in ``elaborate``.
_KINDS = {
    "sq": _Kind(1, True, ("squeezing parameter", MAX_SQUEEZING), squeezer_block),
    "bs": _Kind(2, False, None, beam_splitter_block),
    "ps": _Kind(1, False, None, phase_shift_block),
    "loss": _Kind(1, False, ("efficiency", 1), loss_block),
}


@dataclass(frozen=True)
class Element:
    """One network element: kind, mode labels it touches, numeric parameters.

    ``kind`` keys the element-kind table ``_KINDS`` (``sq``, ``bs``, ``ps``,
    ``loss``), which fixes the mode count, whether ``axis`` ("X" or "Y") is
    used, the range of the one parameter (r, theta, phi or eta), and the map.
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
    """Validated network: declared modes, ordered elements, output labels."""

    mode_names: tuple[str, ...]
    elements: tuple[Element, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.mode_names)
        elements = tuple(self.elements)
        outputs = tuple(self.outputs)
        if not names:
            raise ValueError("network declares no modes")
        if len(set(names)) != len(names):
            raise ValueError("duplicate mode names")
        for el in elements:
            for m in el.modes:
                if m not in names:
                    raise ValueError(f"element references undeclared label {m!r}")
        if not outputs:
            raise ValueError("network declares no outputs")
        for name in outputs:
            if name not in names:
                raise ValueError(f"output references undeclared label {name!r}")
        if len(set(outputs)) != len(outputs):
            raise ValueError("outputs must map to distinct modes")
        object.__setattr__(self, "mode_names", names)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "outputs", outputs)

    @property
    def n_modes(self) -> int:
        return len(self.mode_names)

    @property
    def label_map(self) -> dict[str, int]:
        """Each declared mode name to its mode index."""
        return {n: i for i, n in enumerate(self.mode_names)}


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


def _restrict(state: GaussianState, modes: Sequence[int]) -> GaussianState:
    """Trace out all but the given modes (covariance sub-block extraction)."""
    n = state.n_modes
    flat = list(modes) + [m + n for m in modes]
    return GaussianState(
        len(modes), state.mean[flat], state.cov[np.ix_(flat, flat)])


def elaborate(spec: NetworkSpec) -> GaussianState:
    """Apply the elements in order to vacuum; return the output-mode state.

    Each element updates only the rows and columns of the quadratures it
    touches, in place: ``V[idx, :] = L V[idx, :]``, ``V[:, idx] = V[:, idx] L^t``,
    then its noise is added to their variances.  Every element is linear and
    vacuum has zero mean, so the output mean is zero.  The covariance is
    re-symmetrized and checked against the uncertainty relation once, on all
    modes, with the floor of :func:`~quadnet.states.apply`; a violation raises
    PhysicalityError naming the element count, the smallest eigenvalue and the
    floor.

    Output modes appear in declaration order of the ``out`` statement;
    all other modes are traced out.
    """
    index = spec.label_map
    n = spec.n_modes
    cov = VACUUM_VARIANCE * np.eye(2 * n)
    for el in spec.elements:
        L, noise = _KINDS[el.kind].block(el.params[0], *el._axis_args())
        idx = _touched(n, [index[m] for m in el.modes])
        cov[idx] = L @ cov[idx]
        cov[:, idx] = cov[:, idx] @ L.T
        if noise is not None:
            cov[idx, idx] += noise
    state = GaussianState(n, np.zeros(2 * n), 0.5 * (cov + cov.T))
    _require_physical(state, f"network output after {len(spec.elements)} elements")
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
    configured r).
    """

    target: str
    r: float
    efficiencies: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    gains: GainVector | str = "optimal"

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


# Parsed once per family per process; a NetworkSpec is immutable, so every
# caller can share it.
@functools.cache
def _experiment(target: str) -> NetworkSpec:
    return packaged_network(target)


def build_experiment_network(config: ExperimentConfig) -> NetworkSpec:
    """Network of the four-mode experiment at the configured r and losses.

    The packaged ``data/<target>.net`` file is the experiment: four
    single-mode squeezers (Y, X, X, Y) feed three balanced beam splitters
    whose phase settings select the cluster or the GHZ state.  Every
    squeezer takes ``config.r``, and each output port whose efficiency is
    below 1 gets a loss element after the network.
    """
    spec = _experiment(config.target)
    elements = [replace(el, params=(config.r,)) if el.kind == "sq" else el
                for el in spec.elements]
    for name, eta in zip(spec.outputs, config.efficiencies):
        if eta < 1.0:
            elements.append(Element("loss", (name,), (eta,)))
    return replace(spec, elements=tuple(elements))


def simulate_experiment(config: ExperimentConfig) -> GaussianState:
    """Elaborated output state of the experiment network."""
    return elaborate(build_experiment_network(config))


def packaged_network(target: str) -> NetworkSpec:
    """Parse the shipped ``cluster.net`` / ``ghz.net`` reference file."""
    _family(target)
    text = resources.files("quadnet").joinpath(f"data/{target}.net").read_text()
    return parse_network(text)
