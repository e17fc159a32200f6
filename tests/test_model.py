"""Core model types, observables, and unit conversions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlaa import (
    BETA_GOLDEN,
    LatticeState,
    ModelParams,
    apply_hamiltonian,
    bragg_detunings,
    chemical_potential,
    density_fourier_coefficients,
    energy_functional,
    momentum_width,
    participation_ratio,
    quasiperiodic_potential,
)
from nlaa.model import (H_SI, HBAR_SI, KINDS, apply_stencil, energy_of,
                        participation_of)


# -------------------------
# Parameters and potential
# -------------------------

def test_beta_is_inverse_golden_ratio():
    assert BETA_GOLDEN == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=0)
    assert 0.0 < BETA_GOLDEN < 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(L=1)
    with pytest.raises(ValueError):
        ModelParams(L=21, Delta=np.inf)


def test_self_trapping_guard_warns():
    with pytest.warns(UserWarning, match="self-trapping"):
        ModelParams(L=21, J=1.0, U=2.0)
    # inside the weak regime: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams(L=21, J=1.0, U=1.0)


def test_negated_params_is_involution():
    p = ModelParams(L=13, J=1.0, Delta=1.7, phi=0.4, U=0.6)
    n = p.negated()
    assert (n.J, n.Delta, n.U) == (-1.0, -1.7, -0.6)
    assert (n.beta, n.phi, n.L) == (p.beta, p.phi, p.L)
    nn = n.negated()
    assert (nn.J, nn.Delta, nn.U) == (p.J, p.Delta, p.U)


def test_for_kind_is_the_model_whose_ground_state_is_the_kind_state():
    p = ModelParams(L=13, J=1.0, Delta=1.7, phi=0.4, U=0.6)
    assert KINDS == ("gs", "es")
    assert p.for_kind("gs") is p
    assert p.for_kind("es") == p.negated()
    for kind in ("both", "ground", "highest-excited", "", None):
        with pytest.raises(ValueError, match=f"kind must be 'gs' or 'es', got {kind!r}"):
            p.for_kind(kind)


def test_quasiperiodic_potential_values():
    p = ModelParams(L=21, J=1.0, Delta=1.3, phi=0.7)
    eps = quasiperiodic_potential(p)
    assert eps.shape == (21,)
    assert eps[0] == pytest.approx(1.3 * np.cos(0.7), rel=1e-14)
    assert eps[5] == pytest.approx(1.3 * np.cos(2 * np.pi * BETA_GOLDEN * 5 + 0.7),
                                   rel=1e-14)
    assert np.max(np.abs(eps)) <= 1.3 + 1e-15


def test_potential_second_site_oracle():
    # 2 cos(2 pi beta) for the golden-ratio beta
    p = ModelParams(L=5, J=1.0, Delta=1.0)
    eps = quasiperiodic_potential(p)
    assert 2.0 * eps[1] == pytest.approx(-1.4747377561566397, abs=1e-12)


# -------------------------
# States and observables
# -------------------------

def test_state_normalizes_and_rejects_zero():
    st = LatticeState(np.array([3.0, 4.0]))
    assert np.sum(st.density) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        LatticeState(np.zeros(4))


def test_center_defaults_to_middle():
    assert LatticeState(np.ones(21)).center == 10
    assert LatticeState(np.ones(20)).center == 9


def test_participation_ratio_limits():
    L = 21
    single = LatticeState.single_site(L, 4)
    assert participation_ratio(single) == pytest.approx(1.0 / L, rel=1e-14)
    uniform = LatticeState(np.ones(L))
    assert participation_ratio(uniform) == pytest.approx(1.0, rel=1e-14)


def test_momentum_width_simple_cases():
    L = 21
    assert momentum_width(LatticeState.single_site(L, 10)) == 0.0
    v = np.zeros(L)
    v[9] = v[11] = 1.0
    assert momentum_width(LatticeState(v)) == pytest.approx(1.0, rel=1e-14)


def test_chemical_potential_energy_identity():
    rng = np.random.default_rng(3)
    p = ModelParams(L=17, J=1.0, Delta=0.9, phi=0.2, U=0.7)
    for _ in range(5):
        st = LatticeState(rng.normal(size=17) + 1j * rng.normal(size=17))
        n = st.density
        mu = chemical_potential(p, st)
        e = energy_functional(p, st)
        assert mu == pytest.approx(e - 0.5 * p.U * float(n @ n), rel=1e-12)
        # mu is <phi|H[phi]phi> and must be real for any state
        hv = apply_hamiltonian(p, st)
        direct = np.vdot(st.amplitudes, hv)
        assert abs(direct.imag) < 1e-12
        assert mu == pytest.approx(direct.real, rel=1e-12)


def test_apply_hamiltonian_matches_dense_matrix():
    p = ModelParams(L=9, J=1.0, Delta=1.1, phi=0.3, U=0.4)
    rng = np.random.default_rng(11)
    st = LatticeState(rng.normal(size=9) + 1j * rng.normal(size=9))
    eps = quasiperiodic_potential(p)
    H = (np.diag(eps - p.U * st.density)
         + p.J * np.diag(np.ones(8), 1) + p.J * np.diag(np.ones(8), -1))
    assert np.allclose(apply_hamiltonian(p, st), H @ st.amplitudes,
                       rtol=0, atol=1e-13)


def test_density_fourier_coefficients():
    L = 21
    single = LatticeState.single_site(L, 0)
    c = density_fourier_coefficients(single)
    assert c[0] == pytest.approx(1.0 / L, rel=1e-14)
    assert c[1] == pytest.approx(2.0 / L, rel=1e-14)
    assert c[2] == pytest.approx(2.0 / L, rel=1e-14)


def test_linear_gs_first_harmonic_is_negative():
    # the ground state piles up where the cosine is low, so c1 < 0; frozen
    # values for the Delta/J = 1, L = 21 reference state
    from nlaa import solve_state
    sol = solve_state(ModelParams(L=21, J=1.0, Delta=1.0), "gs")
    c = density_fourier_coefficients(sol.state)
    assert c[1] == pytest.approx(-0.02800083, abs=2e-6)
    assert c[2] == pytest.approx(0.0109289, abs=2e-6)


# -------------------------
# Shared kernels
# -------------------------

def _bits(x):
    return np.asarray(x).tobytes()


def _two_product_stencil(J, diag, v):
    """The stencil with one hopping product per neighbour: the eigensolver's
    own before the shared kernel, and the kernel's before it formed J v
    once. The oracle for apply_stencil."""
    out = diag * v
    out[..., :-1] += J * v[..., 1:]
    out[..., 1:] += J * v[..., :-1]
    return out


def _solver_energy(J, eps, U, v):
    """The eigensolver's own real energy before the shared kernel."""
    n = v * v
    return (2.0 * J * np.add.reduce(v[..., :-1] * v[..., 1:], axis=-1)
            + np.add.reduce(eps * n, axis=-1)
            - 0.5 * U * np.add.reduce(n * n, axis=-1))


@given(B=st.integers(1, 8), L=st.integers(2, 64), per_row=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stencil_with_the_dynamics_inputs_is_the_two_product_form(B, L, per_row, seed):
    # dynamics passes -i J and the complex diagonal -i eps + i U |v|^2
    rng = np.random.default_rng(seed)
    J = -1j * (rng.uniform(-2.0, 2.0, (B, 1)) if per_row else rng.uniform(-2.0, 2.0))
    eps, U = rng.uniform(-4.0, 4.0, (B, L)), rng.uniform(-2.0, 2.0)
    v = rng.normal(size=(B, L)) + 1j * rng.normal(size=(B, L))
    diag = -1j * eps + 1j * U * (v.real ** 2 + v.imag ** 2)
    want = _two_product_stencil(J, diag, v)
    assert _bits(apply_stencil(J, diag, v)) == _bits(want)
    if not per_row:
        for i in range(B):
            assert _bits(apply_stencil(J, diag[i], v[i])) == _bits(want[i])


@given(B=st.integers(1, 8), L=st.integers(2, 64), is_complex=st.booleans(),
       per_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_kernels_compute_each_row_as_alone(B, L, is_complex, per_row, seed):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-4.0, 4.0, (B, L))
    v = rng.normal(size=(B, L))
    if is_complex:
        v = v + 1j * rng.normal(size=(B, L))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    # per-row J and U: (B, 1) columns for the stencil, (B,) for the energy
    J, U = (rng.uniform(-2.0, 2.0, (B, 1)) if per_row else rng.uniform(-2.0, 2.0)
            for _ in range(2))
    J_row, U_row = (np.broadcast_to(x, (B, 1))[:, 0] for x in (J, U))
    diag = eps - U * np.abs(v) ** 2
    hv = apply_stencil(J, diag, v)
    energy = energy_of(J_row if per_row else J, eps, U_row if per_row else U, v)
    n = np.abs(v) ** 2
    n /= n.sum(axis=-1, keepdims=True)
    r = participation_of(n)
    assert hv.shape == v.shape and energy.shape == r.shape == (B,)
    for i in range(B):
        assert _bits(hv[i]) == _bits(apply_stencil(J_row[i], diag[i], v[i]))
        assert _bits(energy[i]) == _bits(energy_of(J_row[i], eps[i], U_row[i], v[i]))
        assert _bits(r[i]) == _bits(participation_of(n[i]))
    if not is_complex:
        assert _bits(apply_stencil(J, eps - U * v * v, v)) == \
            _bits(_two_product_stencil(J, eps - U * v * v, v))
        assert _bits(energy) == _bits(_solver_energy(J_row, eps, U_row, v))
        return
    for i in range(B):
        a = v[i]
        direct = math.fsum([2.0 * J_row[i] * (a[j].conjugate() * a[j + 1]).real
                            for j in range(L - 1)]
                           + [eps[i, j] * abs(a[j]) ** 2 - 0.5 * U_row[i] * abs(a[j]) ** 4
                              for j in range(L)])
        assert energy[i] == pytest.approx(direct, rel=0, abs=1e-14)


# -------------------------
# Units and schedules
# -------------------------

def _si_units(**si):
    """The CLI's internal units of a `solve` config with the SI values `si`."""
    from types import SimpleNamespace

    from nlaa.cli import COMMANDS, _internal_units
    return _internal_units(SimpleNamespace(**{**COMMANDS["solve"][2], **si}))


def test_scattering_length_conversion():
    # a = 100 a0 at the default 2e13 cm^-3: U/h = 101.147 Hz (U over a 1 Hz
    # anchor), U/J = 0.36781 at J/h = 275 Hz; sign(U) = sign(a)
    assert _si_units(j_hz=1.0, scattering_length_a0=100.0).u == \
        pytest.approx(101.147, rel=1e-4)
    assert _si_units(j_hz=275.0, scattering_length_a0=100.0).u == \
        pytest.approx(0.36781, rel=1e-4)
    assert _si_units(j_hz=275.0, scattering_length_a0=-50.0).u < 0


def test_bragg_detunings_flat_lattice():
    p = ModelParams(L=21, J=1.0, Delta=0.0)
    er = H_SI * 5.3e3
    sched = bragg_detunings(p, recoil_joule=er)
    assert sched.detunings.shape == (20,)
    # bond j=0 is row 10 in the -10..9 convention
    assert sched.detunings[10] / (2 * np.pi) == pytest.approx(4 * 5.3e3, rel=1e-9)
    assert sched.detunings[11] / (2 * np.pi) == pytest.approx(12 * 5.3e3, rel=1e-9)
    assert np.all(sched.phases == 0.0)
    assert sched.wavenumber == pytest.approx(
        np.sqrt(2 * 2.2069e-25 * er) / HBAR_SI, rel=1e-12)


def test_bragg_detunings_negative_hopping_and_size_guard():
    sched = bragg_detunings(ModelParams(L=21, J=-1.0, Delta=0.0),
                            recoil_joule=H_SI * 5.3e3)
    assert np.all(sched.phases == np.pi)
    with pytest.raises(ValueError):
        bragg_detunings(ModelParams(L=20, J=1.0), recoil_joule=H_SI * 5.3e3)


def test_bragg_detunings_include_potential_difference():
    p = ModelParams(L=21, J=1.0, Delta=1.0)
    er = H_SI * 5.3e3
    jj = H_SI * 275.0
    sched = bragg_detunings(p, recoil_joule=er, j_energy_joule=jj)
    flat = bragg_detunings(ModelParams(L=21, J=1.0, Delta=0.0), recoil_joule=er)
    eps = quasiperiodic_potential(p) * jj
    shift = (sched.detunings - flat.detunings) * HBAR_SI
    assert np.allclose(shift, -np.diff(eps), rtol=1e-9, atol=0)
