"""Self-consistent ground/excited eigenstate solver."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from nlaa import (
    LatticeState,
    ModelParams,
    SolverOptions,
    apply_hamiltonian,
    chemical_potential,
    energy_functional,
    linear_spectrum,
    nonlinear_excited_state,
    nonlinear_ground_state,
    participation_ratio,
    quasiperiodic_potential,
    solve_state,
)
from nlaa.eigensolve import (_energy_real, _h_apply_real, _imag_time_block,
                             _imag_time_rows, _linear_edge_state, _norm,
                             _residual_mu, _scf_block, imag_time_starts)


def residual(params, state, mu):
    """Stationarity measure ||H[phi] phi - mu phi||_inf."""
    v = state.amplitudes
    return float(np.max(np.abs(apply_hamiltonian(params, v) - mu * v)))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_solver_option_defaults():
    opts = SolverOptions()
    assert opts.residual_tol == 1e-10
    assert opts.max_iterations == 50_000
    assert opts.imag_time_step == 0.05
    assert opts.mixing == 0.3


@pytest.mark.parametrize("field, value", [
    ("residual_tol", float("nan")), ("residual_tol", float("inf")),
    ("imag_time_step", float("nan")), ("imag_time_step", float("inf")),
    ("max_iterations", 0), ("max_iterations", -5)])
def test_solver_options_reject_non_finite_and_empty_budgets(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


# -------------------------
# Linear diagonalization
# -------------------------

def test_free_chain_spectrum_is_cosine_band():
    L = 21
    evals, evecs = linear_spectrum(L, 1.0, np.zeros(L))
    expected = np.sort(2.0 * np.cos(np.arange(1, L + 1) * np.pi / (L + 1)))
    assert np.allclose(np.sort(evals), expected, rtol=0, atol=1e-12)
    assert np.allclose(evecs.T @ evecs, np.eye(L), atol=1e-12)


def test_free_chain_ground_state_r():
    # sin-profile ground state: r = 2(L+1)/(3L)
    L = 21
    _, evecs = linear_spectrum(L, 1.0, np.zeros(L))
    st = LatticeState(evecs[:, 0])
    assert participation_ratio(st) == pytest.approx(2 * (L + 1) / (3 * L),
                                                    rel=1e-12)


def test_sign_convention_largest_component_positive():
    L = 13
    eps = quasiperiodic_potential(ModelParams(L=L, J=1.0, Delta=1.4))
    _, evecs = linear_spectrum(L, 1.0, eps)
    for k in range(L):
        col = evecs[:, k]
        assert col[np.argmax(np.abs(col))] > 0


# -------------------------
# Solver kernels: bitwise the library calls they stand in for
# -------------------------

@given(L=st.integers(2, 200), J=st.floats(0.1, 2.0), sign=st.sampled_from([1.0, -1.0]),
       which=st.sampled_from([0, -1]), scale=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_edge_state_is_bitwise_eigh_tridiagonal(L, J, sign, which, scale, seed):
    eps = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, L)
    off = np.full(L - 1, sign * J)
    sel = (0, 0) if which == 0 else (L - 1, L - 1)
    w, v = eigh_tridiagonal(eps, off, select="i", select_range=sel)
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    w_fast, vec_fast = _linear_edge_state(eps, off, which)
    assert _bits(w_fast) == _bits(w[0])
    assert _bits(vec_fast) == _bits(vec)


@given(L=st.integers(2, 200), J=st.floats(0.1, 2.0), sign=st.sampled_from([1.0, -1.0]),
       U=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_reductions_are_bitwise_the_numpy_wrappers(L, J, sign, U, seed):
    rng = np.random.default_rng(seed)
    J = sign * J
    eps = rng.uniform(-4.0, 4.0, L)
    v = rng.normal(size=L)
    v /= np.linalg.norm(v)
    n = v * v
    energy = 2.0 * J * np.sum(v[:-1] * v[1:]) + np.sum(eps * n) - 0.5 * U * np.sum(n * n)
    assert _bits(_energy_real(J, eps, U, v)) == _bits(energy)
    hv = _h_apply_real(J, eps, U, v)
    mu = float(v @ hv)
    res, mu_fast = _residual_mu(J, eps, U, v)
    assert _bits([res, mu_fast]) == _bits([np.max(np.abs(hv - mu * v)), mu])
    w = rng.normal(size=L) * 10.0 ** rng.uniform(-3, 3)
    assert _bits(_norm(w)) == _bits(np.linalg.norm(w))
    assert _bits(w / _norm(w)) == _bits(w / np.linalg.norm(w))


def test_non_finite_frozen_density_raises_runtime_error():
    # stage B diagonalizes eps - U n; a non-finite entry is a numerical
    # failure (RuntimeError, CLI exit 3), not bad input (ValueError)
    L = 13
    eps = quasiperiodic_potential(ModelParams(L=L, J=1.0, Delta=1.0))
    off = np.full(L - 1, 1.0)
    bad = eps.copy()
    bad[4] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        _linear_edge_state(bad, off, 0)
    v = np.full(L, 1.0 / np.sqrt(L))
    v[2] = np.inf
    with pytest.raises(RuntimeError, match="non-finite"), np.errstate(all="ignore"):
        _scf_block(1.0, off, eps, 0.5, v, 0.3, 10, 1e-10, 10)


# -------------------------
# Nonlinear ground state
# -------------------------

def test_u_zero_reduces_to_linear_ground_state():
    p = ModelParams(L=21, J=1.0, Delta=1.0)
    eps = quasiperiodic_potential(p)
    evals, evecs = linear_spectrum(p.L, p.J, eps)
    sol = nonlinear_ground_state(p)
    assert sol.converged
    overlap = abs(np.vdot(evecs[:, 0], sol.state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert sol.mu == pytest.approx(evals[0], abs=1e-9)
    assert sol.energy == pytest.approx(evals[0], abs=1e-9)


def test_l2_analytic_ground_state():
    # 2-site chain solves in closed form at U=0
    p = ModelParams(L=2, J=1.0, Delta=1.2, phi=0.5)
    eps = quasiperiodic_potential(p)
    mean, half = 0.5 * (eps[0] + eps[1]), 0.5 * (eps[0] - eps[1])
    e_exact = mean - np.hypot(half, p.J)
    sol = nonlinear_ground_state(p)
    assert sol.converged
    assert sol.energy == pytest.approx(e_exact, abs=1e-10)


def test_solution_satisfies_definitions():
    for D, U in [(0.5, 0.6), (2.5, -0.6), (2.0, 0.0)]:
        p = ModelParams(L=21, J=1.0, Delta=D, U=U)
        sol = nonlinear_ground_state(p)
        assert sol.converged
        assert residual(p, sol.state, sol.mu) < 1e-10
        assert sol.mu == pytest.approx(chemical_potential(p, sol.state),
                                       rel=1e-10)
        assert sol.energy == pytest.approx(energy_functional(p, sol.state),
                                           rel=1e-10)


def test_variational_improvement_over_linear_seed():
    # the nonlinear GS must not sit above its own initialization
    for U in (-0.8, 0.8):
        p = ModelParams(L=34, J=1.0, Delta=1.5, U=U)
        eps = quasiperiodic_potential(p)
        _, evecs = linear_spectrum(p.L, p.J, eps)
        e_seed = energy_functional(p, evecs[:, 0])
        sol = nonlinear_ground_state(p)
        assert sol.converged
        assert sol.energy <= e_seed + 1e-12


def test_hard_defocusing_case_converges():
    # multi-well defocusing state that plain density mixing cannot reach
    p = ModelParams(L=144, J=1.0, Delta=2.0, U=-0.5)
    sol = nonlinear_ground_state(p)
    assert sol.converged
    assert residual(p, sol.state, sol.mu) < 1e-10


@given(cap=st.integers(1, 400), kind=st.sampled_from(["gs", "es"]),
       U=st.sampled_from([-0.8, -0.3, 0.3, 0.8]),
       delta=st.sampled_from([0.5, 2.0, 3.5]))
def test_iterations_never_exceed_the_cap(cap, kind, U, delta):
    sol = solve_state(ModelParams(L=13, J=1.0, Delta=delta, U=U), kind,
                      SolverOptions(max_iterations=cap))
    assert sol.iterations <= cap


@given(L=st.integers(2, 34), deltas=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8),
       U=st.floats(-2.0, 2.0), kind=st.sampled_from(["gs", "es"]),
       phi=st.floats(0.0, 2.0 * np.pi), cap=st.integers(1, 400))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_batched_stage_a_equals_lone_solves(L, deltas, U, kind, phi, cap):
    opts = SolverOptions(max_iterations=cap)
    cells = [ModelParams(L=L, J=1.0, Delta=d, phi=phi, U=U) for d in deltas]
    for params, start in zip(cells, imag_time_starts(cells, kind, opts)):
        lone = solve_state(params, kind, opts)
        batched = solve_state(params, kind, opts, start=start)
        assert batched.state.amplitudes.tobytes() == lone.state.amplitudes.tobytes()
        assert _bits([batched.mu, batched.energy, batched.residual]) == \
            _bits([lone.mu, lone.energy, lone.residual])
        assert (batched.iterations, batched.converged) == (lone.iterations, lone.converged)


def test_batched_row_with_non_finite_potential_fails_alone():
    L, U, opts = 13, 0.5, SolverOptions()
    cells = [ModelParams(L=L, J=1.0, Delta=d, U=U) for d in (0.5, 1.5, 2.5)]
    eps = np.array([quasiperiodic_potential(p) for p in cells])
    off = np.full(L - 1, 1.0)
    v0 = np.array([_linear_edge_state(row, off, 0)[1] for row in eps])
    eps[1, 4] = np.inf
    args = (2000, opts.imag_time_step, 1e-3, opts.max_iterations)
    with np.errstate(all="ignore"):
        v, step, used = _imag_time_rows(1.0, eps, U, v0, *args)
        with pytest.raises(RuntimeError) as lone:
            _imag_time_block(1.0, eps[1], U, v0[1], *args)
        # the row's cascade goes on from the batch and raises the lone error
        with pytest.raises(RuntimeError) as batched:
            nonlinear_ground_state(cells[1], opts, start=(v0[1], v[1], step[1], used[1]))
    assert str(batched.value) == str(lone.value)
    for i in (0, 2):
        v_lone, step_lone, used_lone = _imag_time_block(1.0, eps[i], U, v0[i], *args)
        assert _bits(v[i]) == _bits(v_lone)
        assert (step[i], used[i]) == (step_lone, used_lone)


def test_focusing_increases_localization():
    p0 = ModelParams(L=21, J=1.0, Delta=1.8)
    r0 = participation_ratio(nonlinear_ground_state(p0).state)
    rp = participation_ratio(nonlinear_ground_state(
        ModelParams(L=21, J=1.0, Delta=1.8, U=0.5)).state)
    rm = participation_ratio(nonlinear_ground_state(
        ModelParams(L=21, J=1.0, Delta=1.8, U=-0.5)).state)
    assert rp < r0 < rm


# -------------------------
# Excited state via negation
# -------------------------

def test_excited_state_duality_elementwise():
    p = ModelParams(L=21, J=1.0, Delta=1.3, phi=0.2, U=0.4)
    es = nonlinear_excited_state(p)
    gs = nonlinear_ground_state(p.negated())
    assert es.converged and gs.converged
    assert np.allclose(np.abs(es.state.amplitudes), np.abs(gs.state.amplitudes),
                       rtol=0, atol=1e-8)
    assert es.mu == pytest.approx(-gs.mu, rel=1e-12)
    assert es.energy == pytest.approx(-gs.energy, rel=1e-12)
    assert es.kind == "highest-excited"
    # the ES residual is measured against the original parameters
    assert residual(p, es.state, es.mu) < 1e-9


def test_solve_state_dispatch():
    p = ModelParams(L=13, J=1.0, Delta=1.0, U=0.2)
    assert solve_state(p, "gs").kind == "ground"
    assert solve_state(p, "es").kind == "highest-excited"
    with pytest.raises(ValueError):
        solve_state(p, "middle")


# -------------------------
# Small-L brute force
# -------------------------

def _grid_minimum_energy(p, step=1e-2):
    """Dense search over the real unit sphere (nonnegative orthant).

    The GS of the gauge-mapped J<0 problem is nonnegative, and the map
    phi_j -> (-1)^j phi_j turns it into the J>0 ground state at the same
    energy, so the nonnegative orthant of the flipped problem covers the
    search space.
    """
    pm = ModelParams(L=p.L, J=-abs(p.J), Delta=p.Delta, phi=p.phi, U=p.U)
    eps = quasiperiodic_potential(pm)

    def energy_block(vs):
        hop = 2.0 * pm.J * np.sum(vs[:, :-1] * vs[:, 1:], axis=1)
        n = vs ** 2
        return hop + n @ eps - 0.5 * pm.U * np.sum(n ** 2, axis=1)

    angles = np.arange(0.0, np.pi / 2 + step, step)
    if p.L == 2:
        a = angles[:, None]
        vs = np.hstack([np.cos(a), np.sin(a)])
        return float(np.min(energy_block(vs)))
    if p.L == 3:
        a, b = np.meshgrid(angles, angles, indexing="ij")
        a, b = a.ravel()[:, None], b.ravel()[:, None]
        vs = np.hstack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)])
        return float(np.min(energy_block(vs)))
    # L = 4: stream over the first angle to bound memory
    best = np.inf
    b, c = np.meshgrid(angles, angles, indexing="ij")
    b, c = b.ravel(), c.ravel()
    for a in angles:
        sa = np.sin(a)
        vs = np.stack([np.full_like(b, np.cos(a)), sa * np.cos(b),
                       sa * np.sin(b) * np.cos(c), sa * np.sin(b) * np.sin(c)],
                      axis=1)
        best = min(best, float(np.min(energy_block(vs))))
    return best


@pytest.mark.parametrize("L,delta,u", [(2, 1.5, 0.8), (3, 1.1, -0.7),
                                       (4, 0.9, 0.6)])
def test_small_l_brute_force(L, delta, u):
    p = ModelParams(L=L, J=1.0, Delta=delta, phi=0.3, U=u)
    sol = nonlinear_ground_state(p)
    assert sol.converged
    e_grid = _grid_minimum_energy(p)
    assert sol.energy <= e_grid + 1e-12       # solver can only do better
    assert abs(sol.energy - e_grid) < 1e-3
