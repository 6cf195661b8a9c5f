"""Gaussian quadrature states and channels in shot-noise units.

The quadrature vector of an ``n``-mode state is ordered X-block first,
``(X_0, ..., X_{n-1}, Y_0, ..., Y_{n-1})``, and the vacuum variance of
every single quadrature is 1/4.  States and channels are immutable
values and every operation is a pure function, so all of this is safe
to share between threads.

Each element kind has one local block, the only copy of its map: a
matrix ``L`` on the quadratures it touches, ``(X_m, Y_m)`` for a squeezer,
phase shift or loss and ``(X_i, X_j, Y_i, Y_j)`` for a beam splitter, and
the variance its noise adds to each of them (``None`` for the symplectic
elements; a loss adds white vacuum noise).  A block builder takes a float for
one block or an array of values for their stack.  The channel builders embed
one block into the identity; network elaboration builds each kind's blocks in
one call and carries rows back through each, on the entries it touches only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import PhysicalityError

VACUUM_VARIANCE = 0.25
MAX_SQUEEZING = 10.0

_SYMMETRY_TOL = 1e-12
_NOISE_PSD_TOL = 1e-10
_PHYSICALITY_TOL = 1e-9
_RELATIVE_PHYSICALITY_TOL = 1e-14


class Axis(str, Enum):
    """Quadrature axis: amplitude (X) or phase (Y)."""

    X = "X"
    Y = "Y"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state of ``n_modes`` modes: a mean vector and a covariance matrix.

    Parameters
    ----------
    n_modes : int
        Number of optical modes.
    mean : ndarray, shape (2*n_modes,)
        Finite quadrature means, X block first.
    cov : ndarray, shape (2*n_modes, 2*n_modes)
        Finite, symmetric covariance matrix (symmetry enforced to 1e-12).
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        d = 2 * self.n_modes
        mean = _readonly(np.asarray(self.mean, dtype=float))
        cov = _readonly(np.asarray(self.cov, dtype=float))
        if mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        # a non-finite entry makes the asymmetry NaN or inf, so the check
        # for it only runs when the symmetry check fails
        if not np.max(np.abs(cov - cov.T)) <= _SYMMETRY_TOL:
            if not np.isfinite(cov).all():
                raise ValueError("covariance matrix must be finite")
            raise ValueError("covariance matrix is not symmetric within 1e-12")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Deterministic Gaussian map ``V -> T V T^t + N``, ``mean -> T mean``.

    ``N`` must be symmetric positive semidefinite (eigenvalues >= -1e-10);
    symplectic maps are exactly the ``N = 0`` case.
    """

    T: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        T = _readonly(np.asarray(self.T, dtype=float))
        N = _readonly(np.asarray(self.N, dtype=float))
        if T.ndim != 2 or T.shape[0] % 2 or T.shape[1] % 2:
            raise ValueError("T must be 2m x 2n")
        if N.shape != (T.shape[0], T.shape[0]):
            raise ValueError("N must be square and match T's output dimension")
        if np.max(np.abs(N - N.T)) > _SYMMETRY_TOL:
            raise ValueError("N must be symmetric")
        if np.linalg.eigvalsh(N).min() < -_NOISE_PSD_TOL:
            raise ValueError("N must be positive semidefinite within 1e-10")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "N", N)


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum state: zero mean, covariance ``(1/4) I``."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    d = 2 * n_modes
    return GaussianState(n_modes, np.zeros(d), VACUUM_VARIANCE * np.eye(d))


def commutation_matrix(n_modes: int) -> np.ndarray:
    """Antisymmetric form Sigma with ``Sigma[X_k, Y_k] = +1``."""
    n = n_modes
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = -np.eye(n)
    return s


def is_physical(state: GaussianState) -> bool:
    """Check the uncertainty relation ``cov + (i/4) Sigma >= 0``.

    Eigenvalues down to ``-max(1e-9, 1e-14 * largest eigenvalue)`` are
    accepted as round-off: the floor that :func:`apply` enforces on its output
    and network elaboration on each element's block.
    """
    smallest, floor = _uncertainty_eigenvalue(state.cov)
    return bool(smallest >= floor)


def _uncertainty_eigenvalue(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of ``cov + (i/4) Sigma`` and the round-off floor it
    must meet, for one covariance or each of a stack, with one ``eigvalsh``."""
    sigma = commutation_matrix(cov.shape[-1] // 2)
    eigs = np.linalg.eigvalsh(cov + 0.25j * sigma)
    return eigs[..., 0], _eigenvalue_floor(eigs[..., -1])


def _require_physical(cov: np.ndarray, name: Callable[[int], str]) -> None:
    """Check ``cov + (i/4) Sigma >= 0`` for one (d, d) ``cov`` or each of a stack, to
    the floor of :func:`is_physical` (a block passes ``N - (i/4) L Sigma L^t``);
    PhysicalityError names the first k at fault as ``name(k)``, the eigenvalue, floor."""
    smallest, floor = map(np.atleast_1d, _uncertainty_eigenvalue(cov))
    failed = np.flatnonzero(~(smallest >= floor))
    if failed.size:
        k = failed[0]
        raise PhysicalityError(
            f"{name(k)} violates the uncertainty relation: smallest eigenvalue "
            f"{smallest[k]:.6g} is below the floor {floor[k]:.6g}")


def _eigenvalue_floor(largest):
    """Round-off floor ``-max(1e-9, 1e-14 * largest)``, relative for ``e^{2r}`` entries."""
    return -np.maximum(_PHYSICALITY_TOL, _RELATIVE_PHYSICALITY_TOL * largest)


def is_symplectic(T: np.ndarray) -> bool:
    """True when ``T Sigma T^t = Sigma`` to 1e-10 (phase-space-structure preserving)."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] % 2:
        return False
    sigma = commutation_matrix(T.shape[0] // 2)
    return bool(np.max(np.abs(T @ sigma @ T.T - sigma)) <= 1e-10)


def squeezer_block(r: float | np.ndarray, axis: Axis | str) -> tuple[np.ndarray, None]:
    """Local block of a squeezer on ``(X_m, Y_m)``: ``axis`` scaled by ``e^{-r}``,
    the conjugate axis by ``e^{+r}``; ``r`` must lie in ``[0, MAX_SQUEEZING]``.
    A float gives one (2, 2) block, an array of m values the (m, 2, 2) stack."""
    axis = Axis(axis)
    values = np.atleast_1d(np.asarray(r, dtype=float))
    _check_squeezing(values)
    stretch, squeeze = _per_value(math.exp, values), _per_value(math.exp, -values)
    x, y = (stretch, squeeze) if axis is Axis.Y else (squeeze, stretch)
    zero = np.zeros(values.size)
    return _shaped(r, [x, zero, zero, y], 2, 2), None


def phase_shift_block(phi: float | np.ndarray) -> tuple[np.ndarray, None]:
    """Local block of a phase rotation on ``(X_m, Y_m)``: a float gives one (2, 2)
    block, an array of m values the (m, 2, 2) stack."""
    values = np.atleast_1d(np.asarray(phi, dtype=float))
    c, s = _per_value(math.cos, values), _per_value(math.sin, values)
    return _shaped(phi, [c, s, -s, c], 2, 2), None


def beam_splitter_block(theta: float | np.ndarray) -> tuple[np.ndarray, None]:
    """Local block of a balanced splitter on ``(X_i, X_j, Y_i, Y_j)``: the 50/50
    mix times the rotation of mode ``j`` by ``theta``, multiplied out.  A float
    gives one (4, 4) block, an array of m values the (m, 4, 4) stack."""
    values = np.atleast_1d(np.asarray(theta, dtype=float))
    h = np.full(values.size, 1.0 / math.sqrt(2.0))
    hc, hs = h * _per_value(math.cos, values), h * _per_value(math.sin, values)
    zero = np.zeros(values.size)
    return _shaped(theta, [
        h, hc, zero, hs,
        h, -hc, zero, -hs,
        zero, -hs, h, hc,
        zero, hs, h, -hc,
    ], 4, 4), None


def loss_block(eta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local block of an attenuator on ``(X_m, Y_m)``: ``sqrt(eta)`` on both
    quadratures plus ``(1 - eta) / 4`` of vacuum noise; ``eta`` in ``[0, 1]``.
    A float gives one (2, 2) block and its (2,) noise, an array of m values the
    (m, 2, 2) stack and the (m, 2) noise."""
    values = np.atleast_1d(np.asarray(eta, dtype=float))
    if not ((values >= 0.0) & (values <= 1.0)).all():  # NaN fails
        raise ValueError("efficiency must lie in [0, 1]")
    t = _per_value(math.sqrt, values)
    zero = np.zeros(values.size)
    noise = (1.0 - values) * VACUUM_VARIANCE
    return _shaped(eta, [t, zero, zero, t], 2, 2), _shaped(eta, [noise, noise], 2)


def _per_value(f: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """``f`` of each value.  The builders take ``math.exp``, ``math.cos`` ... per
    value, never ``np.exp`` or ``np.cos``: the two can differ in the last bit."""
    return np.array([f(value) for value in values.tolist()])


def _shaped(x: float | np.ndarray, entries: list[np.ndarray], *shape: int) -> np.ndarray:
    """The arrays of ``shape`` whose row-major entries are ``entries``, each an
    array of m values: their (m, *shape) stack for an array ``x``, the one array
    for a float."""
    stack = np.array(entries).T.reshape(-1, *shape)
    return stack if np.ndim(x) else stack[0]


def _touched(n_modes: int, modes) -> np.ndarray:
    """Flat indices ``(X_modes..., Y_modes...)`` of an element's local block, or
    row by row for an (m, k) array of m elements' modes, after checking that each
    mode is in range and that an element's two modes, if it has two, differ."""
    modes = np.asarray(modes)
    if n_modes < 1 or modes.min() < 0 or modes.max() >= n_modes:
        for mode in modes.flat:
            _check_mode(n_modes, mode)
    if (modes[..., 1:] == modes[..., :-1]).any():  # all pairs, for at most two modes
        raise ValueError("beam splitter needs two distinct modes")
    return np.concatenate([modes, modes + n_modes], axis=-1)


def _embed(n_modes: int, modes: tuple[int, ...],
           block: tuple[np.ndarray, np.ndarray | None]) -> GaussianChannel:
    """The channel that acts as ``block`` on ``modes`` and as identity elsewhere."""
    idx = _touched(n_modes, modes)
    L, noise = block
    d = 2 * n_modes
    T = np.eye(d)
    T[np.ix_(idx, idx)] = L
    N = np.zeros((d, d))
    if noise is not None:
        N[idx, idx] = noise
    return GaussianChannel(T, N)


def squeezer(n_modes: int, mode: int, r: float, axis: Axis | str) -> GaussianChannel:
    """Single-mode squeezer reducing the variance of ``axis`` by ``e^{-2r}``.

    The conjugate axis is stretched by ``e^{+2r}``.  ``r`` is capped at
    ``MAX_SQUEEZING`` and must be non-negative.
    """
    return _embed(n_modes, (mode,), squeezer_block(r, axis))


def phase_shift(n_modes: int, mode: int, phi: float) -> GaussianChannel:
    """Phase rotation of one mode: ``phi = pi/2`` maps ``X -> Y, Y -> -X``."""
    return _embed(n_modes, (mode,), phase_shift_block(phi))


def beam_splitter(n_modes: int, mode_i: int, mode_j: int, theta: float) -> GaussianChannel:
    """Balanced 50/50 mixing of two modes with relative phase ``theta``.

    The phase is applied to ``mode_j`` before an equal-weight mix; the sum
    lands on ``mode_i``'s line and the difference on ``mode_j``'s line:

        out_i = (in_i + R(theta) in_j) / sqrt(2)
        out_j = (in_i - R(theta) in_j) / sqrt(2)

    Alternative port/sign placements are realized by composing with
    :func:`phase_shift`, as the packaged experiment networks do.
    """
    return _embed(n_modes, (mode_i, mode_j), beam_splitter_block(theta))


def loss_channel(n_modes: int, mode: int, eta: float) -> GaussianChannel:
    """Pure attenuation of one mode with intensity transmission ``eta``.

    The lost fraction is replaced by vacuum, so any single-mode quadrature
    variance maps to ``eta * v + (1 - eta) / 4``.
    """
    return _embed(n_modes, (mode,), loss_block(eta))


def apply(state: GaussianState, channel: GaussianChannel) -> GaussianState:
    """Propagate ``state`` through ``channel``.

    The output covariance is re-symmetrized and checked against the
    uncertainty relation to the floor of :func:`is_physical`,
    -max(1e-9, 1e-14 * largest eigenvalue); a violation signals a malformed
    channel and raises PhysicalityError naming the smallest eigenvalue and
    the floor.  Network elaboration does not go through here: it checks each
    element's local block once, to the same floor, and carries rows through it.
    """
    d = 2 * state.n_modes
    if channel.T.shape[1] != d:
        raise ValueError(
            f"channel expects dimension {channel.T.shape[1]}, state has {d}"
        )
    mean = channel.T @ state.mean
    cov = channel.T @ state.cov @ channel.T.T + channel.N
    cov = 0.5 * (cov + cov.T)
    out = GaussianState(channel.T.shape[0] // 2, mean, cov)
    _require_physical(out.cov, lambda k: "channel output")
    return out


@dataclass(frozen=True, eq=False)
class QuadForm:
    """Real linear combination of quadratures, ``sum_k c_k q_k``.

    ``coeffs`` is laid out like a state's quadrature vector (X block then
    Y block) and must contain at least one nonzero entry.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _readonly(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size % 2:
            raise ValueError("coefficients must be a 1-d vector of even length")
        if not np.any(c):
            raise ValueError("combination must have at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size // 2

    @classmethod
    def single_axis(cls, n_modes: int, axis: Axis | str, weights: Mapping[int, float]) -> "QuadForm":
        """Combination living on one axis, e.g. ``{0: 1, 1: -1}`` for X0 - X1.

        Each mode must lie in ``[0, n_modes)``; its weight goes to position
        ``mode`` of the X block or of the Y block.
        """
        offset = 0 if Axis(axis) is Axis.X else n_modes
        c = np.zeros(2 * n_modes)
        for mode, w in weights.items():
            _check_mode(n_modes, mode)
            c[mode + offset] = w
        return cls(c)

    def scaled(self, factor: float) -> "QuadForm":
        return QuadForm(factor * self.coeffs)

    def x_part(self) -> np.ndarray:
        """Per-mode X coefficients."""
        return self.coeffs[: self.n_modes]

    def y_part(self) -> np.ndarray:
        """Per-mode Y coefficients."""
        return self.coeffs[self.n_modes :]


def snl(form: QuadForm) -> float:
    """Shot-noise level of a combination: its variance on vacuum."""
    return float(form.coeffs @ form.coeffs) * VACUUM_VARIANCE


def combination_variance(state: GaussianState, form: QuadForm) -> float:
    """Variance ``c^t V c`` of a quadrature combination on a Gaussian state; the
    ``e^{2r}`` entries of V cancel in it from r = 8.5 (see :mod:`quadnet.network`)."""
    if form.coeffs.size != 2 * state.n_modes:
        raise ValueError(
            f"combination is over {form.n_modes} modes, state has {state.n_modes}"
        )
    return float(form.coeffs @ state.cov @ form.coeffs)


def db_rel_snl(variance: float, form: QuadForm) -> float:
    """``10 log10(variance / snl(form))``, the dB value of a computed variance."""
    _check_positive(variance)
    return 10.0 * math.log10(variance / snl(form))


def _check_positive(variance: float) -> None:
    """Reject a variance that is not positive and finite, as every combination's
    variance on a physical state is."""
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be positive and finite, got {variance!r}")


def _check_squeezing(r: float | np.ndarray) -> None:
    """Reject a squeezing parameter, or an array of them, unless each lies in
    ``[0, MAX_SQUEEZING]``, naming the first at fault; NaN fails.  Callers check
    before any ``exp(r)``, which would overflow or warn."""
    values = np.atleast_1d(np.asarray(r, dtype=float))
    failed = values[~((values >= 0.0) & (values <= MAX_SQUEEZING))]
    if failed.size:
        raise ValueError(f"squeezing parameter must be finite and >= 0, in [0, MAX_SQUEEZING]"
                         f" = [0, {MAX_SQUEEZING}]; got {float(failed[0])!r}")


def _check_mode(n_modes: int, mode: int) -> None:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} outside [0, {n_modes})")
