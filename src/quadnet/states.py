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
elements; a loss adds white vacuum noise).  The channel builders embed the
block into the identity; network elaboration applies it in place to the
touched rows and columns only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import PhysicalityError

VACUUM_VARIANCE = 0.25
MAX_SQUEEZING = 10.0

_SYMMETRY_TOL = 1e-12
_NOISE_PSD_TOL = 1e-10
_PHYSICALITY_TOL = 1e-10
_APPLY_TOL = 1e-9
_RELATIVE_PHYSICALITY_TOL = 1e-14


class Axis(str, Enum):
    """Quadrature axis: amplitude (X) or phase (Y)."""

    X = "X"
    Y = "Y"


@dataclass(frozen=True)
class QuadIndex:
    """Address of a single quadrature: a mode number and an axis."""

    mode: int
    axis: Axis

    def flat(self, n_modes: int) -> int:
        """Position of this quadrature in the X-block-first ordering."""
        if not 0 <= self.mode < n_modes:
            raise ValueError(f"mode {self.mode} outside [0, {n_modes})")
        return self.mode + (0 if self.axis is Axis.X else n_modes)


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


def is_physical(state: GaussianState, tol: float = _PHYSICALITY_TOL) -> bool:
    """Check the uncertainty relation ``cov + (i/4) Sigma >= 0``.

    Eigenvalues down to ``-max(tol, 1e-14 * largest eigenvalue)`` are
    accepted as round-off.
    """
    smallest, floor = _uncertainty_eigenvalue(state, tol)
    return bool(smallest >= floor)


def _uncertainty_eigenvalue(state: GaussianState, tol: float) -> tuple[float, float]:
    """Smallest eigenvalue of ``cov + (i/4) Sigma`` and the round-off floor it must meet."""
    sigma = commutation_matrix(state.n_modes)
    eigs = np.linalg.eigvalsh(state.cov + 0.25j * sigma)
    return float(eigs[0]), _eigenvalue_floor(eigs[-1], tol)


def _require_physical(state: GaussianState, what: str) -> None:
    """Raise PhysicalityError naming ``what``, the smallest eigenvalue and the
    floor -max(1e-9, 1e-14 * largest eigenvalue) when ``state`` is unphysical."""
    if not is_physical(state, tol=_APPLY_TOL):
        smallest, floor = _uncertainty_eigenvalue(state, _APPLY_TOL)
        raise PhysicalityError(
            f"{what} violates the uncertainty relation: smallest eigenvalue "
            f"{smallest:.6g} of cov + (i/4) Sigma is below the floor {floor:.6g}")


def _eigenvalue_floor(largest: float, tol: float = _PHYSICALITY_TOL) -> float:
    """Round-off floor ``-max(tol, 1e-14 * largest)``, relative for ``e^{2r}`` entries."""
    return -max(tol, _RELATIVE_PHYSICALITY_TOL * largest)


def is_symplectic(T: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``T Sigma T^t = Sigma`` (phase-space-structure preserving)."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] % 2:
        return False
    sigma = commutation_matrix(T.shape[0] // 2)
    return bool(np.max(np.abs(T @ sigma @ T.T - sigma)) <= tol)


def squeezer_block(r: float, axis: Axis | str) -> tuple[np.ndarray, None]:
    """Local block of a squeezer on ``(X_m, Y_m)``: ``axis`` scaled by ``e^{-r}``,
    the conjugate axis by ``e^{+r}``; ``r`` must lie in ``[0, MAX_SQUEEZING]``."""
    axis = Axis(axis)
    if not 0.0 <= r <= MAX_SQUEEZING:
        raise ValueError(f"squeezing parameter must lie in [0, {MAX_SQUEEZING}]")
    if axis is Axis.Y:
        return np.diag([math.exp(r), math.exp(-r)]), None
    return np.diag([math.exp(-r), math.exp(r)]), None


def phase_shift_block(phi: float) -> tuple[np.ndarray, None]:
    """Local block of a phase rotation on ``(X_m, Y_m)``."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]]), None


def beam_splitter_block(theta: float) -> tuple[np.ndarray, None]:
    """Local block of a balanced splitter on ``(X_i, X_j, Y_i, Y_j)``: the 50/50
    mix times the rotation of mode ``j`` by ``theta``, multiplied out."""
    h = 1.0 / math.sqrt(2.0)
    hc, hs = h * math.cos(theta), h * math.sin(theta)
    return np.array([
        [h, hc, 0.0, hs],
        [h, -hc, 0.0, -hs],
        [0.0, -hs, h, hc],
        [0.0, hs, h, -hc],
    ]), None


def loss_block(eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Local block of an attenuator on ``(X_m, Y_m)``: ``sqrt(eta)`` on both
    quadratures plus ``(1 - eta) / 4`` of vacuum noise; ``eta`` in ``[0, 1]``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    return math.sqrt(eta) * np.eye(2), np.full(2, (1.0 - eta) * VACUUM_VARIANCE)


def _touched(n_modes: int, modes: tuple[int, ...] | list[int]) -> list[int]:
    """Flat indices ``(X_modes..., Y_modes...)`` of an element's local block,
    after checking that each mode is in range and that they are distinct."""
    for mode in modes:
        _check_mode(n_modes, mode)
    if len(set(modes)) != len(modes):
        raise ValueError("beam splitter needs two distinct modes")
    return [*modes, *(m + n_modes for m in modes)]


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


def apply(state: GaussianState, channel: GaussianChannel, check: bool = True) -> GaussianState:
    """Propagate ``state`` through ``channel``.

    The output covariance is re-symmetrized, and (unless ``check=False``)
    verified to satisfy the uncertainty relation (see :func:`is_physical`)
    to an eigenvalue floor of -max(1e-9, 1e-14 * largest eigenvalue); a
    violation signals a malformed channel and raises PhysicalityError
    naming the smallest eigenvalue and the floor.  Network elaboration does
    not go through here: it applies local blocks in place and checks once.
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
    if check:
        _require_physical(out, "channel output")
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
        """Combination living on one axis, e.g. ``{0: 1, 1: -1}`` for X0 - X1."""
        axis = Axis(axis)
        c = np.zeros(2 * n_modes)
        for mode, w in weights.items():
            c[QuadIndex(mode, axis).flat(n_modes)] = w
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
    """Variance of a quadrature combination on a Gaussian state."""
    if form.coeffs.size != 2 * state.n_modes:
        raise ValueError(
            f"combination is over {form.n_modes} modes, state has {state.n_modes}"
        )
    return float(form.coeffs @ state.cov @ form.coeffs)


def variance_db(state: GaussianState, form: QuadForm) -> float:
    """Combination variance relative to shot noise, in dB (negative = below)."""
    return db_rel_snl(combination_variance(state, form), form)


def db_rel_snl(variance: float, form: QuadForm) -> float:
    """``10 log10(variance / snl(form))``, the dB value of a computed variance."""
    _check_positive(variance, form)
    return 10.0 * math.log10(variance / snl(form))


def _check_positive(variance: float, form: QuadForm) -> None:
    """Raise ValueError naming the combination when its variance is not positive.

    A physical state gives every combination a positive variance, so this is
    the e^{2r} covariance entries cancelling to round-off at strong squeezing.
    """
    if not variance > 0.0:
        raise ValueError(
            f"combination {_form_text(form)} has computed variance {variance:.6g}, "
            "not positive: the strongly squeezed covariance cancels to round-off")


def _form_text(form: QuadForm) -> str:
    """The combination written out with 1-based modes, e.g. ``X3-X4``."""
    n = form.n_modes
    text = ""
    for k, c in enumerate(form.coeffs.tolist()):
        if c:
            name = f"{'XY'[k >= n]}{k % n + 1}"
            term = name if abs(c) == 1.0 else f"{abs(c):.6g}*{name}"
            text += ("-" if c < 0 else "+" if text else "") + term
    return text


def _check_mode(n_modes: int, mode: int) -> None:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} outside [0, {n_modes})")
