"""Tests for the Gaussian state core.

Numeric expectations in this file were frozen from independent hand
evaluation of the closed forms (squeezed variance 0.25*exp(-2r), loss
mixing eta*v + (1-eta)/4, purity det(cov) = (1/16)^n) before the
implementation was written.
"""

import math

import numpy as np
import pytest

from quadnet.errors import PhysicalityError
from quadnet.states import (
    Axis,
    GaussianChannel,
    GaussianState,
    QuadForm,
    QuadIndex,
    VACUUM_VARIANCE,
    apply,
    beam_splitter,
    combination_variance,
    commutation_matrix,
    is_physical,
    is_symplectic,
    loss_channel,
    phase_shift,
    snl,
    squeezer,
    vacuum,
    variance_db,
)

# Frozen from independent evaluation of the closed forms before the
# implementation was written:
#   0.25 * exp(-0.804)                      -> 0.1118838095
#   10*log10(exp(-0.804))                   -> -3.4917276 dB
#   0.456 * 0.1118838095 + 0.544 * 0.25     -> 0.1870190171
#   10*log10(0.1870190171 / 0.25)           -> -1.2605424 dB
SQ_VAR_R0402 = 0.1118838095
SQ_DB_R0402 = -3.4917276
LOSSY_VAR = 0.1870190171
LOSSY_DB = -1.2605424


def test_vacuum_covariance():
    """Vacuum has zero mean and 1/4 on every quadrature diagonal."""
    st = vacuum(3)
    assert np.array_equal(st.mean, np.zeros(6))
    assert np.array_equal(st.cov, 0.25 * np.eye(6))


def test_quad_index_flat_ordering():
    """X block comes first, Y block second."""
    assert QuadIndex(1, Axis.X).flat(4) == 1
    assert QuadIndex(1, Axis.Y).flat(4) == 5
    with pytest.raises(ValueError):
        QuadIndex(4, Axis.X).flat(4)


def test_squeezer_variance_frozen_value():
    """A Y squeezer at r = 0.402 gives Var(Y) = 0.11188375 snu."""
    st = apply(vacuum(1), squeezer(1, 0, 0.402, Axis.Y))
    assert st.cov[1, 1] == pytest.approx(SQ_VAR_R0402, abs=1e-8)
    assert st.cov[0, 0] == pytest.approx(0.25 * math.exp(0.804), abs=1e-8)


def test_squeezer_db_frozen_value():
    """The same squeezed quadrature sits 3.4917 dB below shot noise."""
    st = apply(vacuum(1), squeezer(1, 0, 0.402, Axis.Y))
    form = QuadForm.single_axis(1, Axis.Y, {0: 1.0})
    assert variance_db(st, form) == pytest.approx(SQ_DB_R0402, abs=1e-6)


def test_squeezer_x_axis():
    """An X squeezer reduces X and stretches Y."""
    st = apply(vacuum(1), squeezer(1, 0, 1.0, Axis.X))
    assert st.cov[0, 0] == pytest.approx(0.25 * math.exp(-2.0))
    assert st.cov[1, 1] == pytest.approx(0.25 * math.exp(2.0))


def test_squeezer_range_validation():
    """Negative or over-cap squeezing parameters are rejected."""
    with pytest.raises(ValueError):
        squeezer(1, 0, -0.1, Axis.Y)
    with pytest.raises(ValueError):
        squeezer(1, 0, 10.5, Axis.Y)


def test_phase_shift_quarter_turn():
    """phi = pi/2 maps X to Y and Y to -X."""
    ch = phase_shift(1, 0, math.pi / 2)
    vec = ch.T @ np.array([1.0, 0.0])
    assert vec == pytest.approx([0.0, -1.0], abs=1e-15)
    vec = ch.T @ np.array([0.0, 1.0])
    assert vec == pytest.approx([1.0, 0.0], abs=1e-15)


def test_beam_splitter_port_convention():
    """Sum lands on the first port, difference on the second."""
    bs = beam_splitter(2, 0, 1, 0.0)
    mean = np.array([1.0, 3.0, 0.0, 0.0])  # X0 = 1, X1 = 3
    out = bs.T @ mean
    assert out[0] == pytest.approx(4.0 / math.sqrt(2.0))
    assert out[1] == pytest.approx(-2.0 / math.sqrt(2.0))


def test_beam_splitter_epr_variances():
    """Mixing an X- and a Y-squeezed mode yields EPR-like correlations."""
    r = 0.5
    st = vacuum(2)
    st = apply(st, squeezer(2, 0, r, Axis.X))
    st = apply(st, squeezer(2, 1, r, Axis.Y))
    st = apply(st, beam_splitter(2, 0, 1, 0.0))
    # X_out0 - X_out1 = sqrt(2) X_in1 (stretched), Y difference is squeezed.
    dx = QuadForm.single_axis(2, Axis.X, {0: 1.0, 1: -1.0})
    dy = QuadForm.single_axis(2, Axis.Y, {0: 1.0, 1: -1.0})
    assert combination_variance(st, dx) == pytest.approx(0.5 * math.exp(2 * r))
    assert combination_variance(st, dy) == pytest.approx(0.5 * math.exp(-2 * r))
    assert combination_variance(st, dy) == pytest.approx(0.18393972, abs=1e-8)


def test_loss_channel_frozen_value():
    """eta = 0.456 on the squeezed quadrature gives 0.18701899 snu (-1.2603 dB)."""
    st = apply(vacuum(1), squeezer(1, 0, 0.402, Axis.Y))
    st = apply(st, loss_channel(1, 0, 0.456))
    form = QuadForm.single_axis(1, Axis.Y, {0: 1.0})
    assert combination_variance(st, form) == pytest.approx(LOSSY_VAR, abs=1e-8)
    assert variance_db(st, form) == pytest.approx(LOSSY_DB, abs=1e-6)


def test_loss_channel_identity_and_blocking():
    """eta = 1 is the identity, eta = 0 replaces the mode with vacuum."""
    st = apply(vacuum(1), squeezer(1, 0, 1.0, Axis.Y))
    same = apply(st, loss_channel(1, 0, 1.0))
    assert np.allclose(same.cov, st.cov)
    dark = apply(st, loss_channel(1, 0, 0.0))
    assert np.allclose(dark.cov, 0.25 * np.eye(2))
    with pytest.raises(ValueError):
        loss_channel(1, 0, 1.2)


def test_symplectic_maps():
    """Squeezers, phase shifts, beam splitters preserve the commutation form."""
    assert is_symplectic(squeezer(2, 1, 0.7, Axis.X).T)
    assert is_symplectic(phase_shift(3, 2, 1.1).T)
    assert is_symplectic(beam_splitter(4, 0, 3, 0.4).T)
    assert not is_symplectic(loss_channel(2, 0, 0.5).T)
    assert not is_symplectic(np.eye(3))  # odd dimension


def test_commutation_matrix_structure():
    """Sigma is antisymmetric with Sigma^2 = -I."""
    s = commutation_matrix(4)
    assert np.array_equal(s, -s.T)
    assert np.allclose(s @ s, -np.eye(8))


def test_purity_of_pure_four_mode_state():
    """A squeezer-and-splitter network keeps det(cov) = (1/16)^4."""
    st = vacuum(4)
    for mode, axis in ((0, Axis.Y), (1, Axis.X), (2, Axis.X), (3, Axis.Y)):
        st = apply(st, squeezer(4, mode, 0.402, axis))
    st = apply(st, beam_splitter(4, 1, 2, math.pi / 2))
    st = apply(st, beam_splitter(4, 0, 1, 0.0))
    st = apply(st, beam_splitter(4, 3, 2, 0.0))
    assert np.linalg.det(st.cov) == pytest.approx((1.0 / 16.0) ** 4, rel=1e-9)
    assert is_physical(st)


def test_unphysical_covariance_detected():
    """Uniform variance 1/8 on both quadratures violates uncertainty."""
    st = GaussianState(1, np.zeros(2), 0.125 * np.eye(2))
    assert not is_physical(st)


def test_apply_rejects_unphysical_output():
    """A contraction without compensating noise raises PhysicalityError."""
    bad = GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)))
    with pytest.raises(PhysicalityError):
        apply(vacuum(1), bad)
    # With check disabled the state is returned as-is.
    st = apply(vacuum(1), bad, check=False)
    assert np.allclose(st.cov, 0.0625 * np.eye(2))


def test_apply_dimension_mismatch():
    """Channel and state dimensions must agree."""
    with pytest.raises(ValueError):
        apply(vacuum(2), phase_shift(1, 0, 0.3))


def test_state_validation():
    """Malformed means or asymmetric covariances are rejected."""
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(3), 0.25 * np.eye(2))
    bad = 0.25 * np.eye(2)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), bad)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_state_rejects_non_finite_entries(value):
    """NaN slips past the symmetry check, so finiteness is checked on its own."""
    cov = 0.25 * np.eye(2)
    cov[0, 0] = value
    with pytest.raises(ValueError, match="finite"):
        GaussianState(1, np.zeros(2), cov)
    with pytest.raises(ValueError, match="finite"):
        GaussianState(1, np.array([0.0, value]), 0.25 * np.eye(2))


def test_channel_noise_validation():
    """Channel noise must be symmetric positive semidefinite."""
    with pytest.raises(ValueError):
        GaussianChannel(np.eye(2), -0.01 * np.eye(2))
    asym = np.zeros((2, 2))
    asym[0, 1] = 1e-3
    with pytest.raises(ValueError):
        GaussianChannel(np.eye(2), asym)


def test_states_are_immutable():
    """Covariance arrays are read-only views."""
    st = vacuum(1)
    with pytest.raises(ValueError):
        st.cov[0, 0] = 1.0


def test_quadform_validation_and_snl():
    """Shot-noise level is 1/4 times the squared coefficient norm."""
    form = QuadForm.single_axis(2, Axis.X, {0: 1.0, 1: -1.0})
    assert snl(form) == pytest.approx(0.5)
    assert variance_db(vacuum(2), form) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        QuadForm(np.zeros(4))
    with pytest.raises(ValueError):
        QuadForm(np.ones(3))
    with pytest.raises(ValueError):
        combination_variance(vacuum(1), form)


def test_quadform_parts_and_scaling():
    """x_part/y_part split the coefficient vector; scaled rescales it."""
    form = QuadForm(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(form.x_part(), [1.0, 2.0])
    assert np.array_equal(form.y_part(), [3.0, 4.0])
    assert np.array_equal(form.scaled(2.0).coeffs, [2.0, 4.0, 6.0, 8.0])


def test_random_symplectic_chains_stay_physical():
    """Long random chains of passive and active elements stay physical."""
    rng = np.random.default_rng(20260816)
    for _ in range(25):
        st = vacuum(3)
        for _ in range(12):
            kind = rng.integers(0, 4)
            if kind == 0:
                st = apply(st, squeezer(3, int(rng.integers(0, 3)), float(rng.uniform(0, 1.5)), Axis.Y))
            elif kind == 1:
                st = apply(st, phase_shift(3, int(rng.integers(0, 3)), float(rng.uniform(-3, 3))))
            elif kind == 2:
                i, j = rng.choice(3, size=2, replace=False)
                st = apply(st, beam_splitter(3, int(i), int(j), float(rng.uniform(-3, 3))))
            else:
                st = apply(st, loss_channel(3, int(rng.integers(0, 3)), float(rng.uniform(0.2, 1.0))))
        assert is_physical(st)


def test_apply_physicality_error_names_eigenvalue_and_floor():
    """Vacuum through a 0.5 contraction: cov + (i/4) Sigma has eigenvalue
    1/16 - 1/4 = -0.1875 against the floor -1e-9."""
    bad = GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)))
    with pytest.raises(PhysicalityError,
                       match=r"channel output .* smallest eigenvalue -0\.1875 .* floor -1e-09"):
        apply(vacuum(1), bad)


def test_variance_db_rejects_non_positive_variance():
    """dB of a zero variance is named, not a bare math domain error."""
    state = GaussianState(2, np.zeros(4), np.zeros((4, 4)))
    form = QuadForm(np.array([0.0, 1.5, 1.0, -1.0]))
    with pytest.raises(ValueError, match=r"combination 1\.5\*X2\+Y1-Y2 has computed variance 0,"):
        variance_db(state, form)
