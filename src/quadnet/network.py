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

A network is applied as a list of steps, one local block per element, each
checked by :func:`_require_channels` to be a Gaussian channel,
``N + (i/4)(Sigma - L Sigma L^t) >= 0`` (Holevo & Werner, PRA 63, 032312 (2001)),
so no state built from vacuum needs a check of its own.  Every result comes from
one pass direction: the backward (Heisenberg-picture) pass carries rows of
quadrature coefficients from the outputs back to the vacuum input
(:func:`_carry`), and never forms the covariance's cancelling ``e^{2r}``
entries.  A combination's variance sums the non-negative terms its row meets
(:func:`_backward`); :func:`elaborate` carries the output quadratures' unit rows
and forms the covariance as their Gram matrix, ``V = S S^t / 4`` plus the
losses' noise.

Passive linear optics is one constant orthogonal-symplectic map (Braunstein &
van Loock, RMP 77, 513 (2005)).  So the backward pass over a network of the
layered shape, parsed or built, is three layers (:func:`_layers`): the losses'
noise terms, ``rows @ O`` with O its passive run compiled and cached
(:func:`_tail_map`), and the squeezers' diagonal with the vacuum's
``||row||^2 / 4``.  That shape is squeezers of one r on distinct modes, a run of
``ps`` and ``bs`` elements, then losses on distinct modes, each part possibly
empty.  Any other network, and :func:`elaborate`, go element by element; both
passes name the first element at fault in network order.
Replayed in exact rational arithmetic over the same rounded blocks (the oracle
in ``tests/test_network.py``), both passes give every experiment variance within
4 ulps lossless, 64 ulps with the per-port losses 0.9, 0.8, 0.7, 0.95 and 96
ulps with 0.95, 0.9, 0.85, 0.8, for r from 0 to 10, and every variance of a
parsed 8-mode network of the layered shape, with losses, within 48 ulps; every
entry of :func:`elaborate`'s covariance lies within 1e-15 of its largest entry.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .criteria import GainVector, _family
from .errors import (
    NetworkFormatError,
    ParameterRangeError,
    UndeclaredLabelError,
    UnknownKeywordError,
)
from .states import (
    GaussianState,
    MAX_SQUEEZING,
    VACUUM_VARIANCE,
    _PHYSICALITY_TOL,
    _check_squeezing,
    _require_physical,
    _touched,
    beam_splitter_block,
    commutation_matrix,
    loss_block,
    phase_shift_block,
    squeezer_block,
)

@dataclass(frozen=True)
class _Kind:
    """Element kind: ``<kind> <mode>... [<axis>] <param>`` with ``arity`` modes,
    an X/Y token if ``axis``, ``param`` in ``[0, upper]`` if ``limits`` is
    ``(name, upper)``, and the builder of its local blocks on the touched
    quadratures (see :mod:`quadnet.states`).  The passes call ``block(params,
    *axis)`` on an array of m parameters and take the (m, d, d) stack of blocks
    and their (m, d) noise, or ``None`` for a kind without noise; a parameter out
    of range raises ValueError.  Squeezer and loss blocks are diagonal."""

    arity: int
    axis: bool
    limits: tuple[str, float] | None
    block: Callable[..., tuple[np.ndarray, np.ndarray | None]]


# ``_steps`` builds and checks these blocks, which the passes apply to the entries
# they touch alone; the public builders (``states.squeezer`` ...) embed them in the
# identity.  The parser checks ``limits`` to report a line and column; the block
# builders check the same ranges again, so an Element built in code with e.g.
# r = 10.5 still fails in ``elaborate``.
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
    An Element built in code has its shape checked here by :func:`_check_shape`
    and its ranges, axis value and modes when elaborated; :func:`parse_network`
    checks all of these once, with their line and column, and builds its
    Elements without a second check.
    """

    kind: str
    modes: tuple[str, ...]
    params: tuple[float, ...]
    axis: str | None = None

    def __post_init__(self):
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown element kind {self.kind!r}")
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        _check_shape(self, kind)

    def _axis_args(self) -> tuple[str, ...]:
        return (self.axis,) if _KINDS[self.kind].axis else ()


def _check_shape(el: Element, kind: _Kind) -> None:
    """Raise ValueError unless ``el`` has the shape that its entry ``kind`` of
    ``_KINDS`` fixes: the kind's mode count, one finite parameter, and an axis
    exactly when the kind takes one.  The one check of an element's shape, made
    once on an Element built in code and once on each parsed element."""
    if len(el.modes) != kind.arity:
        raise ValueError(f"{el.kind} takes {kind.arity} mode(s), got {el.modes}")
    if len(el.params) != 1 or not math.isfinite(el.params[0]):
        raise ValueError(f"{el.kind} takes one finite parameter, got {el.params}")
    if (el.axis is not None) != kind.axis:
        raise ValueError(f"{el.kind} takes {'an' if kind.axis else 'no'} axis, "
                         f"got {el.axis!r}")


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, which the
    caller has checked: its ``__post_init__`` does not run."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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

    Exactly one ``out`` statement is required and it must come last.  Tokens
    are separated by whitespace.  Errors carry the offending line and column,
    found only for the message; a missing ``out`` is blamed on the last line.
    Each element is checked once, here: its token count against ``_KINDS``,
    its modes declared and distinct, its axis value, its shape by
    :func:`_check_shape` and its range.  The Elements and the NetworkSpec are
    then built without checking again what the parser has checked.
    """
    modes: dict[str, None] = {}  # declared names, in order
    elements: list[Element] = []
    outputs: tuple[str, ...] | None = None
    out_line = 0

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        tokens = line.split()
        if not tokens:
            continue
        if outputs is not None:
            raise NetworkFormatError(
                f"statement after the out declaration on line {out_line}",
                lineno, _column(line, 0))
        keyword = tokens[0]
        kind = _KINDS.get(keyword)
        if kind is not None:
            elements.append(_parse_element(kind, tokens, modes, lineno, line))
        elif keyword == "mode":
            _need_args(tokens, 1, lineno, line)
            name = tokens[1]
            if name in modes:
                raise NetworkFormatError(f"mode {name!r} already declared",
                                         lineno, _column(line, 1))
            modes[name] = None
        elif keyword == "out":
            if len(tokens) == 1:
                raise NetworkFormatError("out needs at least one mode", lineno, _column(line, 0))
            for k, name in enumerate(tokens[1:], start=1):
                if name not in modes:
                    raise _undeclared(tokens, k, lineno, line)
                if name in tokens[1:k]:
                    raise NetworkFormatError(
                        f"duplicate output {name!r}", lineno, _column(line, k))
            outputs = tuple(tokens[1:])
            out_line = lineno
        else:
            raise UnknownKeywordError(f"unknown keyword {keyword!r}", lineno, _column(line, 0))

    if outputs is None:
        raise NetworkFormatError("no output declaration", max(len(lines), 1), 1)
    # every rule of NetworkSpec holds: the outputs, hence the modes, are non-empty,
    # and every name an element or the out statement uses is declared once
    return _unchecked(NetworkSpec, mode_names=tuple(modes), elements=tuple(elements),
                      outputs=outputs)


def _column(line: str, k: int) -> int:
    """1-based column of token ``k`` of ``line``; only error messages need it."""
    return [token.start() for token in re.finditer(r"\S+", line)][k] + 1


def _parse_element(kind: _Kind, tokens, modes, lineno, line) -> Element:
    keyword = tokens[0]
    last = kind.arity + kind.axis + 1  # the parameter's token
    _need_args(tokens, last, lineno, line)
    names = tuple(tokens[1:kind.arity + 1])
    for name in names:
        if name not in modes:
            raise _undeclared(tokens, tokens.index(name, 1), lineno, line)
    if kind.arity > 1 and len(set(names)) != kind.arity:
        raise NetworkFormatError(
            f"{keyword} needs {kind.arity} distinct modes", lineno, _column(line, 2))
    axis = None
    if kind.axis:
        axis = tokens[kind.arity + 1]
        if axis not in ("X", "Y"):
            raise ParameterRangeError(f"squeezing axis must be X or Y, got {axis!r}",
                                      lineno, _column(line, kind.arity + 1))
    text = tokens[last]
    try:
        value = float(text)
    except ValueError:
        raise NetworkFormatError(f"expected a number, got {text!r}", lineno,
                                 _column(line, last)) from None
    element = _unchecked(Element, kind=keyword, modes=names, params=(value,), axis=axis)
    try:
        _check_shape(element, kind)
    except ValueError:  # the token count fixed the rest: the parameter is not finite
        raise ParameterRangeError(f"parameter {text!r} is not finite", lineno,
                                  _column(line, last)) from None
    if kind.limits is not None:
        name, upper = kind.limits
        if not 0.0 <= value <= upper:
            raise ParameterRangeError(
                f"{name} {value} outside [0, {upper}]", lineno, _column(line, last))
    return element


def _need_args(tokens, count, lineno, line):
    if len(tokens) - 1 != count:
        raise NetworkFormatError(
            f"{tokens[0]} takes {count} argument{'s' if count != 1 else ''}, "
            f"got {len(tokens) - 1}", lineno, _column(line, 0))


def _undeclared(tokens, k, lineno, line) -> UndeclaredLabelError:
    return UndeclaredLabelError(f"undeclared mode {tokens[k]!r}", lineno, _column(line, k))


def serialize_network(spec: NetworkSpec) -> str:
    """Render a NetworkSpec in the text format; parse round-trips exactly."""
    lines = [f"mode {name}" for name in spec.mode_names]
    for el in spec.elements:
        lines.append(" ".join((el.kind, *el.modes, *el._axis_args(), repr(el.params[0]))))
    lines.append("out " + " ".join(spec.outputs))
    return "\n".join(lines) + "\n"


# --- elaboration -------------------------------------------------------------

# The symplectic form on a block's quadratures, by block size: one-mode elements
# touch 2 of them, two-mode elements 4.
_COMMUTATION = {d: commutation_matrix(d // 2) for d in (2, 4)}


def _steps(spec: NetworkSpec) -> list[tuple]:
    """Every element's step of :func:`_blocks`, checked by :func:`_require_channels`."""
    steps, parts = _blocks(spec, slice(None))
    _require_channels(spec, parts)
    return steps


def _blocks(spec: NetworkSpec, span: slice) -> tuple[list, list]:
    """Each element of ``spec.elements[span]`` as ``(L, noise, idx)``: its local
    block, the variance its noise adds (or ``None``) and the flat indices of the
    quadratures it touches, unchecked; and the parts that
    :func:`_require_channels` checks them by, naming an element by its place in
    ``spec``.

    Each kind's blocks (a squeezer's, each axis's) come from one builder call on
    the array of their parameters, their indices from one :func:`_touched`.
    """
    elements = spec.elements
    groups: dict[tuple, list[int]] = {}
    for k in range(len(elements))[span]:
        groups.setdefault((elements[k].kind, elements[k].axis), []).append(k)
    index = spec.label_map
    steps: list = [None] * len(elements)
    parts = []  # each group's blocks, for _require_channels
    for (kind, _), members in groups.items():
        params = np.array([elements[k].params[0] for k in members])
        modes = np.array([index[m] for k in members for m in elements[k].modes])
        try:
            L, noise = _KINDS[kind].block(params, *elements[members[0]]._axis_args())
            idx = _touched(spec.n_modes, modes.reshape(len(members), -1))
        except ValueError:  # raise the first element's fault in network order
            for el in elements[span]:
                _KINDS[el.kind].block(np.array(el.params), *el._axis_args())
                _touched(spec.n_modes, [index[m] for m in el.modes])
            raise
        for k, step in zip(members, zip(L, repeat(None) if noise is None else noise, idx)):
            steps[k] = step
        parts.append((members, L, noise))
    return steps[span], parts


def _require_channels(spec: NetworkSpec, parts: list[tuple],
                      squeezing: np.ndarray | None = None) -> None:
    """Check that each block of ``parts`` is with its noise a Gaussian channel,
    ``N + (i/4)(Sigma - L Sigma L^t) >= 0``; PhysicalityError names the first
    element of ``spec`` at fault in network order, and the r at fault of a stack.

    A part is ``(owner, L, noise)``: an (m, d, d) stack of blocks and their (m, d)
    noise or ``None``.  ``owner`` holds the element of each block, or is one
    element, the first squeezer of an axis, whose blocks are at the m values of
    ``squeezing`` in turn (at its own r without ``squeezing``).  The blocks of each
    size are tested as one stack by Gershgorin's bound; the rows are named and the
    eigenvalues computed only for a stack that fails it.
    """
    sizes: dict[int, list] = {}
    for part in parts:
        sizes.setdefault(part[1].shape[-1], []).append(part)
    for d, group in sizes.items():
        L = np.concatenate([blocks for _, blocks, _ in group])
        noise = np.concatenate([np.zeros((len(blocks), d)) if extra is None else extra
                                for _, blocks, extra in group])
        sigma = _COMMUTATION[d]
        # Gershgorin: no eigenvalue of N + (i/4) B, B = Sigma - L Sigma L^t, lies
        # below noise - (row sum of |B|) / 4; a 2 x 2 block has B = (1 - det L) Sigma
        if d == 2:
            spread = np.abs(1.0 - (L[:, 0, 0] * L[:, 1, 1] - L[:, 0, 1] * L[:, 1, 0]))[:, None]
        else:
            spread = np.abs(sigma - L @ sigma @ L.swapaxes(-1, -2)).sum(axis=-1)
        if (noise - 0.25 * spread >= -_PHYSICALITY_TOL).all():
            continue
        rows: list = []  # the element and the r, or None, of each block
        for owner, blocks, _ in group:
            if isinstance(owner, int):
                rows += zip(repeat(owner), [None] * len(blocks) if squeezing is None
                            else squeezing.tolist())
            else:
                rows += zip(owner, repeat(None))
        order = sorted(range(len(rows)), key=lambda row: rows[row][0])  # stable: r in turn

        def name(row: int) -> str:
            k, r = rows[order[row]]
            el = spec.elements[k]
            at = "" if r is None else f" at r = {r!r}"
            return f"element {k + 1} ({el.kind} {' '.join(el.modes)}){at}"

        matrix = noise[..., None] * np.eye(d) - 0.25j * (L @ sigma @ L.swapaxes(-1, -2))
        _require_physical(matrix[order], name)


def _carry(steps: list[tuple], rows: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """``rows`` (k, d) carried back through ``steps`` in reverse, each element's
    ``rows[:, idx] @ L`` replacing its touched entries, and for each lossy step
    met the ``rows[:, idx]`` it met and its noise.  ``rows`` is left as it is.

    The pass works on a copy stored quadrature by quadrature, (d, k), so that
    ``take`` gathers an element's entries as whole rows.  Transposed back, they
    are laid out column by column, as ``rows[:, idx]`` lays them out: BLAS
    rounds the loss term's matrix-vector product differently on a copy laid out
    row by row.
    """
    by_quadrature = np.ascontiguousarray(rows.T)
    lossy = []
    for L, noise, idx in reversed(steps):
        touched = by_quadrature.take(idx, axis=0).T
        if noise is not None:
            lossy.append((touched, noise))
        by_quadrature[idx] = (touched @ L).T
    return np.ascontiguousarray(by_quadrature.T), lossy


def _backward(steps: list[tuple], rows: np.ndarray) -> np.ndarray:
    """Variances of the combinations ``rows`` (k, d) on the state that ``steps``
    produce from vacuum, by :func:`_carry`: each lossy element adds
    ``(rows[:, idx]**2) @ noise``, and the vacuum input ``||row||^2 / 4`` of the
    carried row.  Every term is non-negative, so the ``e^{2r}`` entries of the
    covariance, which cancel in ``c^t V c`` at strong squeezing, never appear."""
    rows, lossy = _carry(steps, rows)
    variances = np.zeros(len(rows))
    for touched, noise in lossy:
        variances += (touched ** 2) @ noise
    return variances + VACUUM_VARIANCE * (rows * rows).sum(axis=-1)


# Compiled passive runs, the oldest dropped first: room for both families' runs and
# no more, since a key keeps its run's Elements alive.
_MAPS: dict[tuple, np.ndarray] = {}
_MAPS_KEPT = 2


def _tail_map(steps: list[tuple], n_modes: int) -> np.ndarray:
    """The passive run of checked ``steps`` as one constant map O, ``rows @ O``
    being the backward pass over it: the unit rows that :func:`_carry` carries
    back through the steps."""
    return _carry(steps, np.eye(2 * n_modes))[0]


def _layers(spec: NetworkSpec, squeezing: np.ndarray | None) -> tuple | None:
    """A network of the layered shape (see the module docstring) as ``(O, squeeze,
    lossy, noise)``: its passive run's compiled map with its losses' transmission
    folded in, its squeezers' diagonal (one row per r of ``squeezing``), the
    quadratures its losses touch and the variance their noise adds; ``None`` for
    any other network.

    The squeezer and loss blocks come from ``_KINDS`` on every call.  The run's
    map is cached under its Elements, compared by value, the mode names and the
    ``ps`` and ``bs`` builders, so a patched builder compiles, and so checks, a
    map of its own.  All blocks built are checked in one :func:`_require_channels`
    call, which names the first element at fault as the stepwise pass does.
    """
    elements = spec.elements
    start = next((k for k, el in enumerate(elements) if el.kind != "sq"), len(elements))
    stop = next((k for k in range(start, len(elements)) if elements[k].kind not in ("ps", "bs")),
                len(elements))
    head, losses = elements[:start], elements[stop:]
    if (any(el.kind != "loss" for el in losses) or len({el.params for el in head}) > 1
            or any(len({el.modes for el in part}) < len(part) for part in (head, losses))):
        return None
    n, index = spec.n_modes, spec.label_map
    r = squeezing if squeezing is not None else np.array(head[0].params if head else (0.0,))
    squeeze = np.ones((len(r), 2, n))  # (X_m, Y_m) of mode m in column m, per r
    parts = []
    for axis in dict.fromkeys(el.axis for el in head):  # in network order
        members = [k for k, el in enumerate(head) if el.axis == axis]
        L, _ = _KINDS["sq"].block(r, axis)
        parts.append((members[0], L, None))
        squeeze[..., [index[head[k].modes[0]] for k in members]] = (
            L.reshape(-1, 4)[:, ::3, None])
    key = (elements[start:stop], spec.mode_names, _KINDS["ps"].block, _KINDS["bs"].block)
    compiled = _MAPS.get(key)
    if compiled is None:
        steps, run = _blocks(spec, slice(start, stop))
        parts += run
    transmit = np.ones((2, n))
    lossy, noise = [], np.zeros(0)  # the quadratures a loss touches, the noise it adds
    if losses:
        L, extra = _KINDS["loss"].block(np.array([el.params[0] for el in losses]))
        parts.append((range(stop, len(elements)), L, extra))
        modes = [index[el.modes[0]] for el in losses]
        transmit[:, modes] = L.reshape(-1, 4)[:, ::3].T
        lossy, noise = modes + [m + n for m in modes], extra.T.ravel()
    _require_channels(spec, parts, squeezing)
    if compiled is None:
        if len(_MAPS) >= _MAPS_KEPT:
            del _MAPS[next(iter(_MAPS))]
        compiled = _MAPS[key] = _tail_map(steps, n)
    # the losses' transmission, applied before the run in the backward pass, folded into O
    compiled = transmit.reshape(-1, 1) * compiled
    squeeze = squeeze.reshape(len(r), 2 * n)
    return (compiled, squeeze if squeezing is not None else squeeze[0],
            np.array(lossy, int), noise)


def _layered(compiled: np.ndarray, squeeze: np.ndarray, lossy: np.ndarray,
             noise: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The backward pass over a network's :func:`_layers`: the losses' noise
    terms, then ``rows @ O`` for their transmission and the run, the
    squeezers' diagonal, and ``||row||^2 / 4`` for the vacuum input.  Every term
    is non-negative, as in :func:`_backward`."""
    variances = (rows[..., lossy] ** 2) @ noise
    rows = rows @ compiled
    rows *= squeeze[..., None, :]
    return variances + VACUUM_VARIANCE * (rows * rows).sum(axis=-1)


def _propagate(spec: NetworkSpec, rows: np.ndarray, squeezing: np.ndarray | None = None
               ) -> np.ndarray:
    """Variances (..., k) of the combinations ``rows``, (..., k, 2 * len(spec.outputs))
    on the outputs of ``spec``, by the backward pass over its checked steps, or
    over its :func:`_layers` for a network of the layered shape.

    Without ``squeezing`` the squeezers keep their own r; with ``squeezing``, m
    values of r that every squeezer takes in turn, ``rows`` may hold one set per
    r, (m, k, ...), and only a network of the layered shape takes them: any
    other raises ValueError.  A variance that is not finite raises ValueError
    naming the network's element count or r if its row, scaled to unit size,
    still overflows, and else the combination and its coefficients, the gains'
    fault.
    """
    layers = _layers(spec, squeezing)
    if layers is None:
        if squeezing is not None:
            raise ValueError("a stack of squeezing values needs a network of the "
                             "layered shape")
        backward = functools.partial(_backward, _steps(spec))
    else:
        backward = functools.partial(_layered, *layers)
    stack = () if squeezing is None else (len(squeezing),)
    full = np.zeros((*stack, np.shape(rows)[-2], 2 * spec.n_modes))  # 0 on traced-out modes
    index = spec.label_map
    out = [index[name] for name in spec.outputs]  # declared and distinct, as spec checked
    full[..., out + [m + spec.n_modes for m in out]] = rows
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        variances = backward(full)
    if not np.isfinite(variances).all():
        at = tuple(np.argwhere(~np.isfinite(variances))[0])
        where = "" if squeezing is None else f" at r = {float(squeezing[at[0]])!r}"
        with np.errstate(over="ignore", invalid="ignore"):  # zero rows give NaN, unread
            unit = backward(full / np.abs(full).max(axis=-1, keepdims=True))
        if not np.isfinite(unit[at]):
            raise ValueError(f"network output{where or f' after {len(spec.elements)} elements'}"
                             f" overflows double precision")
        coeffs = np.broadcast_to(rows, (*variances.shape, np.shape(rows)[-1]))[at]
        raise ValueError(
            f"variance of combination {at[-1]}{where} is {variances[at]}: its "
            f"coefficients ({', '.join(f'{c:g}' for c in coeffs.tolist())}), the gains "
            f"times the label's factors, are too large for double precision")
    return variances


def elaborate(spec: NetworkSpec) -> GaussianState:
    """Apply the elements in order to vacuum; return the output-mode state.

    The output quadratures' unit rows, in the order of the ``out`` statement,
    are carried back through the checked steps by :func:`_carry`, so a
    traced-out mode never enters.  The covariance is the Gram matrix ``G G^t``,
    exactly symmetric as numpy forms it, of ``G = [rows / 2 | rows[:, idx] *
    sqrt(noise) per lossy step]``: ``V = S S^t / 4`` plus the losses' noise.
    Vacuum has zero mean and every element is linear, so the mean is zero.  A
    covariance that overflows raises ValueError naming the element count.
    """
    index = spec.label_map
    flat = _touched(spec.n_modes, [index[label] for label in spec.outputs])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        rows, lossy = _carry(_steps(spec), np.eye(2 * spec.n_modes)[flat])
        gram = np.hstack([math.sqrt(VACUUM_VARIANCE) * rows,
                          *(touched * np.sqrt(noise) for touched, noise in lossy)])
        cov = gram @ gram.T
    if not np.isfinite(cov).all():
        raise ValueError(f"network output after {len(spec.elements)} elements "
                         f"overflows double precision")
    return GaussianState(len(spec.outputs), np.zeros(len(flat)), cov)


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
        _check_squeezing(self.r)
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


def build_experiment_network(config: ExperimentConfig) -> NetworkSpec:
    """Network of the four-mode experiment at the configured r and losses.

    The packaged ``data/<target>.net`` file is the experiment: four
    single-mode squeezers (Y, X, X, Y) feed three balanced beam splitters
    whose phase settings select the cluster or the GHZ state.  Every
    squeezer takes ``config.r``, and each output port whose efficiency is
    below 1 gets a loss element after the network.
    """
    spec = packaged_network(config.target)
    elements = [Element("sq", el.modes, (config.r,), el.axis) if el.kind == "sq" else el
                for el in spec.elements]
    elements += [Element("loss", (name,), (eta,))
                 for name, eta in zip(spec.outputs, config.efficiencies) if eta < 1.0]
    # every element is on a mode of the packaged network, so the spec's rules hold
    return _unchecked(NetworkSpec, mode_names=spec.mode_names, elements=tuple(elements),
                      outputs=spec.outputs)


def simulate_experiment(config: ExperimentConfig) -> GaussianState:
    """Elaborated output state of the experiment network."""
    return elaborate(build_experiment_network(config))


def _experiment_variances(config: ExperimentConfig, r_values: Sequence[float]) -> np.ndarray:
    """Variances of the six combinations of ``config.target``, shape (m, 6), with
    every squeezer of the experiment at each of ``r_values`` in turn.

    ``config`` sets the losses and the gains, ``"optimal"`` being resolved at
    each r; its own ``r`` is replaced.  Every r must lie in ``[0, MAX_SQUEEZING]``,
    checked before the optimal gains take ``exp(4r)``.  The r-points are one
    stacked :func:`_propagate`, a backward pass alone.
    """
    r_values = np.asarray(r_values, dtype=float)
    _check_squeezing(r_values)
    fam = _family(config.target)
    gains = config.gains if isinstance(config.gains, GainVector) else fam.optimal_gains(r_values)
    return _propagate(build_experiment_network(config), fam.coefficients(gains), r_values)


# Parsed once per family per process; a NetworkSpec is immutable, so every
# caller can share it.
@functools.cache
def packaged_network(target: str) -> NetworkSpec:
    """Parse the shipped ``cluster.net`` / ``ghz.net`` reference file."""
    _family(target)
    text = resources.files("quadnet").joinpath(f"data/{target}.net").read_text()
    return parse_network(text)
