"""Self-consistent ground/excited eigenstate solver."""

import importlib.machinery
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.linalg.lapack import dgtsv as dgtsv_lapack

from nlaa import (
    LatticeState,
    ModelParams,
    SolverOptions,
    apply_hamiltonian,
    chemical_potential,
    energy_functional,
    linear_spectrum,
    participation_ratio,
    quasiperiodic_potential,
    solve_state,
)
from nlaa import eigensolve
from nlaa.eigensolve import (IMAG_TIME_STEP, NEWTON_HANDOVER, SCF_MIXING, SCF_WINDOW,
                             _energy_gradient, _imag_time_block, _imag_time_rows,
                             _linear_edge_state, _norm, _projected, _residual_mu,
                             _scf_block, _scf_rows, batched_starts,
                             require_converged, warm_start, warm_starts)
from nlaa.model import apply_stencil, energy_of


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
    assert [f.name for f in fields(SolverOptions)] == ["residual_tol",
                                                        "max_iterations"]
    assert (IMAG_TIME_STEP, SCF_MIXING) == (0.05, 0.3)
    assert (SCF_WINDOW, NEWTON_HANDOVER) == (50, 1e-5)


@pytest.mark.parametrize("field, value", [
    ("residual_tol", float("nan")), ("residual_tol", float("inf")),
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


@pytest.mark.parametrize("L", [1, 2, 21, 987])
def test_linear_spectrum_is_bitwise_eigh_tridiagonal(L):
    eps = np.random.default_rng(L).uniform(-1.3, 1.3, L)
    w, v = eigh_tridiagonal(eps, np.full(L - 1, 0.8))
    for k in range(L):
        if v[np.argmax(np.abs(v[:, k])), k] < 0:
            v[:, k] = -v[:, k]
    w_fast, v_fast = linear_spectrum(L, 0.8, eps)
    assert _bits(w_fast) == _bits(w)
    assert _bits(v_fast) == _bits(v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linear_spectrum_rejects_a_non_finite_potential(bad):
    eps = np.zeros(7)
    eps[3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        linear_spectrum(7, 1.0, eps)


# -------------------------
# LAPACK loader: scipy's _flapack file, or scipy.linalg.lapack
# -------------------------

def _lapack_results(lib, d, off):
    """Every output of the five routines nlaa binds, called from `lib` as the
    solver calls them, on the tridiagonal (d, off)."""
    rhs = np.array([d, np.roll(d, 1)]).T
    *_, x, info = lib.dgtsv(off, d, off, rhs)
    # dpttrf on (d, off), and on a diagonally dominant shift that it factors
    d_f, e_f, info_f = lib.dpttrf(d, off)
    d_p, e_p, info_p = lib.dpttrf(np.abs(d) + 2.5 * np.abs(off).max(initial=0.0), off)
    m, w, iblock, isplit, info_z = lib.dstebz(d, off, 2, 0.0, 1.0, 1, len(d),
                                              0.0, "B")
    v, info_s = lib.dstein(d, off, w[:m], iblock, isplit)
    w_all, v_all, info_d = lib.dstevd(d, off, compute_v=1)
    return [_bits(out) for out in (x, d_f, e_f, d_p, e_p, w, iblock, isplit, v, w_all,
                                   v_all, [info, info_f, info_p, m, info_z, info_s,
                                           info_d])]


def _tridiagonal(L, J, scale, seed):
    return (scale * np.random.default_rng(seed).uniform(-1.0, 1.0, L),
            np.full(L - 1, J))


def _load_lapack(names=eigensolve._LAPACK_ROUTINES):
    return eigensolve._load_scipy_extension("linalg", "_flapack", names,
                                            "scipy.linalg.lapack")


def test_loader_takes_scipys_compiled_module():
    assert eigensolve._lapack.__name__ == "scipy.linalg._flapack"
    assert _load_lapack().__name__ == "scipy.linalg._flapack"


@given(L=st.integers(2, 200), J=st.floats(-2.0, 2.0), scale=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_loaded_routines_are_bitwise_scipy_linalg_lapack(L, J, scale, seed):
    d, off = _tridiagonal(L, J, scale, seed)
    assert _lapack_results(eigensolve, d, off) == _lapack_results(lapack, d, off)


def _block(L, J, kind, rng):
    """(d, off) of one L x L tridiagonal with off-diagonal J: random,
    diagonally dominant (so positive definite), or singular, J times the
    signless Laplacian of a path, tridiag(1, [1, 2, ..., 2, 1], 1), on which
    Gaussian elimination meets an exact zero at its last pivot."""
    if kind == "singular":
        d = np.full(L, 2.0 * J)
        d[[0, -1]] = J
    elif kind == "definite":
        d = rng.uniform(0.1, 3.0, L) + 2.0 * abs(J)
    else:
        d = rng.uniform(-3.0, 3.0, L)
    return d, np.full(L - 1, J)


def _stack(blocks):
    """The diagonal and off-diagonal of the blocks stacked into one
    block-diagonal matrix, with zero couplings between blocks."""
    return (np.concatenate([d for d, _ in blocks]),
            np.concatenate([np.append(off, 0.0) for _, off in blocks])[:-1])


_BLOCK_ROWS = st.lists(st.tuples(st.floats(0.1, 2.0), st.sampled_from([1.0, -1.0]),
                                 st.sampled_from(["random", "definite", "singular"])),
                       min_size=1, max_size=6)


@given(L=st.integers(2, 40), rows=_BLOCK_ROWS, seed=st.integers(0, 2**32 - 1))
def test_stacked_blocks_solve_bitwise_as_each_block_alone(L, rows, seed):
    # dgtsv with two right-hand sides on B tridiagonal blocks of one L
    # stacked with zero couplings: info names the first failing block, and
    # where none fails each block's solution is bitwise its lone call's
    # (dgtsv back-substitutes only once every block has factored)
    rng = np.random.default_rng(seed)
    blocks = [_block(L, mag * sign, kind, rng) for mag, sign, kind in rows]
    rhs = [np.asfortranarray(rng.normal(size=(L, 2))) for _ in blocks]
    d, off = _stack(blocks)
    lone = [eigensolve.dgtsv(o, dd, o, b)[3:] for (dd, o), b in zip(blocks, rhs)]
    x, info = eigensolve.dgtsv(off, d, off, np.asfortranarray(np.concatenate(rhs)))[3:]
    failing = [i for i, (_, info_i) in enumerate(lone) if info_i != 0]
    assert info == (failing[0] * L + lone[failing[0]][1] if failing else 0)
    if not failing:
        for i, (want, _) in enumerate(lone):
            assert _bits(x[i * L:(i + 1) * L]) == _bits(want)


@given(L=st.integers(2, 40), rows=_BLOCK_ROWS, seed=st.integers(0, 2**32 - 1))
def test_rows_newton_steps_are_the_lone_ones(L, rows, seed):
    # a failing block (a singular T) takes the lone step and leaves the
    # other rows bitwise
    rng = np.random.default_rng(seed)
    J = np.array([mag * sign for mag, sign, _ in rows])
    d = np.array([_block(L, j, kind, rng)[0] for j, (*_, kind) in zip(J, rows)])
    v = rng.normal(size=(len(rows), L))
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    F, F_L = rng.normal(size=v.shape) * 1e-3, rng.normal(size=len(rows)) * 1e-14
    d_v, d_mu, ok = eigensolve._newton_steps(J, d, v, F, F_L)
    for i in range(len(rows)):
        try:
            want = eigensolve._newton_step(np.full(L - 1, J[i]), d[i], v[i], F[i], F_L[i])
        except np.linalg.LinAlgError:
            assert not ok[i]
            continue
        assert ok[i] and _bits([*d_v[i], d_mu[i]]) == _bits([*want[0], want[1]])


@pytest.mark.parametrize("hide", ["file", "load", "routine"])
def test_loader_falls_back_to_scipy_linalg_lapack(monkeypatch, tmp_path, hide):
    names = eigensolve._LAPACK_ROUTINES
    if hide == "file":
        monkeypatch.setattr(eigensolve, "_scipy_extension_file", lambda *_: None)
    elif hide == "load":
        junk = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        junk.write_bytes(b"not a shared object")
        monkeypatch.setattr(eigensolve, "_scipy_extension_file",
                            lambda *_: str(junk))
    else:   # a name scipy.linalg.lapack has and _flapack lacks
        names += ("get_lapack_funcs",)
    lib = _load_lapack(names)
    assert lib is lapack
    for L, seed in [(2, 0), (21, 1), (144, 2)]:
        d, off = _tridiagonal(L, -0.9, 3.0, seed)
        assert _lapack_results(lib, d, off) == _lapack_results(eigensolve, d, off)


# -------------------------
# Solver kernels: bitwise the library calls they stand in for
# -------------------------

@given(L=st.integers(2, 200), J=st.floats(0.1, 2.0), sign=st.sampled_from([1.0, -1.0]),
       scale=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_edge_state_is_bitwise_eigh_tridiagonal(L, J, sign, scale, seed):
    eps = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, L)
    off = np.full(L - 1, sign * J)
    w, v = eigh_tridiagonal(eps, off, select="i", select_range=(0, 0))
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    w_fast, vec_fast = _linear_edge_state(eps, off)
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
    assert _bits(energy_of(J, eps, U, v)) == _bits(energy)
    hv = apply_stencil(J, eps - U * v * v, v)
    mu = float(v @ hv)
    res, mu_fast = _residual_mu(J, eps, U, v)
    assert _bits([res, mu_fast]) == _bits([np.max(np.abs(hv - mu * v)), mu])
    # stage A's step: one linear stencil for E and the gradient
    h = apply_stencil(J, eps, v)
    energy, g = _energy_gradient(J, eps, U, v)
    assert _bits(energy) == _bits(v @ h - 0.5 * (n @ (U * n)))
    assert _bits(g) == _bits(h - U * n * v)
    mu = float(v @ g)
    assert _bits(_projected(v, g)) == _bits([np.max(np.abs(g - mu * v)), mu])
    w = rng.normal(size=L) * 10.0 ** rng.uniform(-3, 3)
    assert _bits(_norm(w)) == _bits(np.linalg.norm(w))
    assert _bits(w / _norm(w)) == _bits(w / np.linalg.norm(w))


def _close(a, b):
    """Elementwise |a - b| <= 1e-13 max(1, |b|)."""
    return np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


@given(L=st.integers(2, 34),
       cells=st.lists(st.tuples(st.floats(0.1, 2.0), st.sampled_from([1.0, -1.0]),
                                st.one_of(st.just(0.0), st.floats(-2.0, 2.0))),
                      min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_stage_a_energy_and_gradient_are_the_kernels(L, cells, seed):
    # one stencil without the interaction gives E[v] and H[v] v, in the lone
    # form (scalar J, U) and the batched one ((B, 1) columns, rows as alone)
    rng = np.random.default_rng(seed)
    J = np.array([a * sign for a, sign, _ in cells])
    U = np.array([u for *_, u in cells])
    eps = rng.uniform(-4.0, 4.0, (len(cells), L))
    v = rng.normal(size=(len(cells), L))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    energies, grads = _energy_gradient(J[:, None], eps, U[:, None], v)
    assert _close(energies, energy_of(J, eps, U, v))
    assert _close(grads, apply_stencil(J[:, None], eps - U[:, None] * v * v, v))
    for i in range(len(cells)):
        energy, g = _energy_gradient(J[i], eps[i], U[i], v[i])
        assert _close(energy, energy_of(J[i], eps[i], U[i], v[i]))
        assert _close(g, apply_stencil(J[i], eps[i] - U[i] * v[i] * v[i], v[i]))
        assert _bits([energy, *g]) == _bits([energies[i], *grads[i]])


def _imag_time_reference(J, eps, U, v, max_steps, step, res_target, budget):
    """_imag_time_block's loop with new arrays at every step, written as it
    was before it stepped on preallocated buffers or without temporaries:
    the stencil is apply_stencil, w = v - step * g and the gradient h - U *
    n * w. (apply_stencil is the two-product stencil bit for bit, which
    tests/test_model.py checks.) Returns (v, step, iterations_used, number
    of steps the energy guard rejected)."""
    def energy_gradient(w):
        h = apply_stencil(J, eps, w)
        n = w * w
        return w.dot(h) - 0.5 * n.dot(U * n), h - U * n * w

    e_prev, g = energy_gradient(v)
    used = rejected = 0
    for k in range(min(max_steps, budget)):
        used += 1
        w = v - step * g
        w /= np.sqrt(w.dot(w))
        e, g_w = energy_gradient(w)
        if e > e_prev + 1e-15:
            step *= 0.5
            rejected += 1
            continue
        v, e_prev, g = w, e, g_w
        step = min(step * 1.02, 0.2)
        if k % 50 == 0 and _projected(v, g)[0] < res_target:
            break
    return v, step, used, rejected


def _assert_stage_a_is_the_reference(J, eps, U, v0, *args):
    """_imag_time_block bit for bit as the reference loop; returns how many
    steps the reference's energy guard rejected."""
    v, step, used = _imag_time_block(J, eps, U, v0, *args)
    v_ref, step_ref, used_ref, rejected = _imag_time_reference(J, eps, U, v0, *args)
    assert _bits([*v, step]) == _bits([*v_ref, step_ref])
    assert used == used_ref
    return rejected


# L up to 150: finite_size's solves are lone blocks at L = 144
@given(L=st.integers(2, 150), J=st.floats(0.1, 2.0), sign=st.sampled_from([1.0, -1.0]),
       U=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), delta=st.floats(0.0, 8.0),
       phi=st.floats(0.0, 2.0 * np.pi), max_steps=st.integers(1, 400))
def test_stage_a_is_bitwise_the_reference_loop(L, J, sign, U, delta, phi, max_steps):
    J *= sign
    eps = quasiperiodic_potential(ModelParams(L=L, J=J, Delta=delta, phi=phi))
    _, v0 = _linear_edge_state(eps, np.full(L - 1, J))
    _assert_stage_a_is_the_reference(J, eps, U, v0, max_steps, IMAG_TIME_STEP, 1e-3,
                                     50_000)


def test_stage_a_with_rejected_steps_is_bitwise_the_reference_loop():
    # from the uniform state a first step of 5.0 overshoots: the guard
    # rejects and halves it, and the loop goes on from the state and
    # buffers it kept
    L, J, U = 144, 1.0, -0.5
    eps = quasiperiodic_potential(ModelParams(L=L, J=J, Delta=4.88))
    v0 = np.full(L, L ** -0.5)
    assert _assert_stage_a_is_the_reference(J, eps, U, v0, 300, 5.0, 1e-3, 50_000) >= 1


def test_stage_a_returns_a_state_of_its_own():
    L, J, U = 144, 1.0, 0.5
    eps = quasiperiodic_potential(ModelParams(L=L, J=J, Delta=2.0))
    v0 = np.full(L, L ** -0.5)
    before = v0.copy()
    # 0 steps and a rejected step (both return the input's bits), and 120
    for max_steps, step in ((0, IMAG_TIME_STEP), (1, 50.0), (120, IMAG_TIME_STEP)):
        first = _imag_time_block(J, eps, U, v0, max_steps, step, 1e-3, 50_000)[0]
        second = _imag_time_block(J, eps, U, v0, max_steps, step, 1e-3, 50_000)[0]
        assert _bits(v0) == _bits(before)
        assert (_bits(first) == _bits(v0)) == (max_steps < 2)
        assert not np.shares_memory(first, v0)
        assert not np.shares_memory(first, second)
        assert _bits(first) == _bits(second)
        first[:] = np.nan
        assert _bits(second) != _bits(first)
        assert _bits(v0) == _bits(before)


def test_non_finite_frozen_density_raises_runtime_error():
    # stage B diagonalizes eps - U n; a non-finite entry is a numerical
    # failure (RuntimeError, CLI exit 3), not bad input (ValueError)
    L = 13
    eps = quasiperiodic_potential(ModelParams(L=L, J=1.0, Delta=1.0))
    off = np.full(L - 1, 1.0)
    bad = eps.copy()
    bad[4] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        _linear_edge_state(bad, off)
    v = np.full(L, 1.0 / np.sqrt(L))
    v[2] = np.inf
    with pytest.raises(RuntimeError, match="non-finite"), np.errstate(all="ignore"):
        _scf_block(1.0, off, eps, 0.5, v, 10, 1e-10, 10)


# -------------------------
# Nonlinear ground state
# -------------------------

def test_u_zero_reduces_to_linear_ground_state():
    p = ModelParams(L=21, J=1.0, Delta=1.0)
    eps = quasiperiodic_potential(p)
    evals, evecs = linear_spectrum(p.L, p.J, eps)
    sol = solve_state(p, "gs")
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
    sol = solve_state(p, "gs")
    assert sol.converged
    assert sol.energy == pytest.approx(e_exact, abs=1e-10)


def test_solution_satisfies_definitions():
    for D, U in [(0.5, 0.6), (2.5, -0.6), (2.0, 0.0)]:
        p = ModelParams(L=21, J=1.0, Delta=D, U=U)
        sol = solve_state(p, "gs")
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
        sol = solve_state(p, "gs")
        assert sol.converged
        assert sol.energy <= e_seed + 1e-12


def test_hard_defocusing_case_converges():
    # multi-well defocusing state that plain density mixing cannot reach
    p = ModelParams(L=144, J=1.0, Delta=2.0, U=-0.5)
    sol = solve_state(p, "gs")
    assert sol.converged
    assert residual(p, sol.state, sol.mu) < 1e-10


@given(cap=st.integers(1, 400), kind=st.sampled_from(["gs", "es"]),
       U=st.sampled_from([-0.8, -0.3, 0.3, 0.8]),
       delta=st.sampled_from([0.5, 2.0, 3.5]))
def test_iterations_never_exceed_the_cap(cap, kind, U, delta):
    sol = solve_state(ModelParams(L=13, J=1.0, Delta=delta, U=U), kind,
                      SolverOptions(max_iterations=cap))
    assert sol.iterations <= cap


@given(L=st.integers(2, 34),
       cells=st.lists(st.tuples(st.floats(0.0, 8.0), st.floats(-2.0, 2.0),
                                st.sampled_from(["gs", "es"])), min_size=1, max_size=8),
       phi=st.floats(0.0, 2.0 * np.pi), cap=st.integers(1, 400),
       newton=st.one_of(st.none(), st.integers(1, 6)))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_batched_stage_a_equals_lone_solves(L, cells, phi, cap, newton):
    # one batch of cells with their own Delta, U and kind. With `newton`,
    # the cap ends that many iterations after the first cell's stage A:
    # inside the Newton steps of its convex exit, or of its stage C after
    # a stage B cut short
    params = [ModelParams(L=L, J=1.0, Delta=d, phi=phi, U=U) for d, U, _ in cells]
    kinds = [kind for *_, kind in cells]
    if newton is not None:
        cap = batched_starts(params[:1], kinds[:1])[0][3] + newton
    _assert_batched_equals_lone(params, kinds, SolverOptions(max_iterations=cap))


def _assert_batched_equals_lone(cells, kind, opts):
    """Solve the cells from batched_starts and alone; compare bitwise.
    `kind` is one kind or one per cell. Returns the starts."""
    starts = batched_starts(cells, kind, opts)
    kinds = [kind] * len(cells) if isinstance(kind, str) else kind
    for params, k, start in zip(cells, kinds, starts):
        _assert_same_solution(solve_state(params, k, opts, start=start),
                              solve_state(params, k, opts))
    return starts


def _without_convex_exit(solve, *args, **kwargs):
    """solve(*args, **kwargs) with _newton_exit rejecting every cell: the
    cascade as it runs where the exit after stage A does not certify."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_newton_exit", lambda *_: None)
        return solve(*args, **kwargs)


def _assert_same_solution(a, b):
    assert a.state.amplitudes.tobytes() == b.state.amplitudes.tobytes()
    assert _bits([a.mu, a.energy, a.residual]) == _bits([b.mu, b.energy, b.residual])
    assert (a.iterations, a.converged, a.certified) == (b.iterations, b.converged,
                                                       b.certified)


@given(deltas=st.lists(st.sampled_from([0.5, 1.5, 2.0, 3.0, 5.0]), min_size=1,
                       max_size=5),
       U=st.sampled_from([0.5, 1.0]), kind=st.sampled_from(["gs", "es"]),
       phi=st.floats(0.0, 2.0 * np.pi), frac=st.floats(0.0, 1.0),
       stage=st.sampled_from(["B", "C"]))
def test_batched_stage_b_equals_lone_when_the_cap_ends_inside_it(deltas, U, kind,
                                                                  phi, frac, stage):
    # focusing cells (U > 0 in the model each kind solves), which the convex
    # exit leaves to stage B and then to stage C's Newton steps
    U = U if kind == "gs" else -U
    cells = [ModelParams(L=13, J=1.0, Delta=d, phi=phi, U=U) for d in deltas]
    _, _, _, used_a, (_, _, used_b), polish, _ = batched_starts(cells, kind)[0]
    if stage == "B":
        # a cap that stops the first cell's stage B after 1 ... used_b - 1 steps
        cut = 1 + int(frac * (used_b - 2)) if used_b > 1 else 1
    else:
        # one that stops its stage C after 0 ... (its Newton steps - 1) steps
        assume(polish is not None)
        newton = int(frac * (polish[2] - 1))
        cut = used_b + newton
    opts = SolverOptions(max_iterations=used_a + cut)
    starts = _assert_batched_equals_lone(cells, kind, opts)
    # the capped cell really ran the stage, and the stage ran to the cap
    p = cells[0].for_kind(kind)
    _, v, _, _, scf, polish, _ = starts[0]
    if stage == "C":
        assert scf[2] == used_b and polish[2] == newton
        return
    want = _scf_block(p.J, np.full(12, p.J), quasiperiodic_potential(p), p.U, v,
                      2000, opts.residual_tol, cut)
    assert _bits([scf[0], *scf[1]]) == _bits([want[0], *want[1]])
    assert scf[2] == want[2] == cut


def _stage_b_as_alone(cells, kind, opts):
    """Attempt 0's stage B of `cells` (one kind) as one _scf_rows batch on
    their stage A output, each row checked bitwise against _scf_block alone;
    then each cell's cascade from that row is checked bitwise against the
    lone solve without the convex exit, which runs the same stage B itself.
    Returns the rows' (best residual, best iterate, iterations_used)."""
    solved = [p.for_kind(kind) for p in cells]
    J, U, eps, v0, v, step, used = _stage_a_rows(solved, opts)
    budgets = opts.max_iterations - used
    args = (2000, opts.residual_tol)
    rows = _scf_rows(J, eps, U, v, *args, budgets)
    for i, p in enumerate(cells):
        res, best, n = _scf_block(J[i], np.full(p.L - 1, J[i]), eps[i], U[i], v[i],
                                  *args, budgets[i])
        assert _bits([rows[i][0], *rows[i][1]]) == _bits([res, *best])
        assert rows[i][2] == n
        start = (v0[i], v[i], step[i], used[i], rows[i], None, None)
        _assert_same_solution(solve_state(p, kind, opts, start=start),
                              _without_convex_exit(solve_state, p, kind, opts))
    return rows


@pytest.mark.parametrize("kind, U", [("gs", -1.0), ("es", 0.5), ("es", 1.0)])
def test_batched_stage_b_stalls_fall_through_to_newton_as_alone(kind, U):
    # defocusing rows: stage B hands over to Newton for small Delta and
    # stalls (its residual stops falling across a SCF_WINDOW-step window) for
    # large Delta; the first window only sets the bar, so the earliest stall
    # is at 2 * SCF_WINDOW, and one row here stalls later than that. The
    # convex exit finishes these cells before stage B, so stage B runs here
    # on their stage A output, as it does for a cell the exit rejects.
    opts = SolverOptions()
    cells = [ModelParams(L=13, J=1.0, Delta=d, U=U)
             for d in (0.5, 2.5, 3.0, 4.5, 5.0, 6.0)]
    _assert_batched_equals_lone(cells, kind, opts)
    stalled = [row for row in _stage_b_as_alone(cells, kind, opts)
               if row[0] >= NEWTON_HANDOVER]
    assert stalled and all(used % SCF_WINDOW == 0 and used < 2000
                           for _, _, used in stalled)
    assert any(used > 2 * SCF_WINDOW for _, _, used in stalled)


def test_batched_stage_b_exits_at_handover_stall_and_later_as_alone():
    # one batch, three exits: row 0 hands over to Newton within the first
    # window, row 1 stalls at the earliest stall check, and row 2 runs on
    # past both and hands over after its second window (on stage A's output,
    # as for cells the convex exit rejects)
    opts = SolverOptions()
    cells = [ModelParams(L=13, J=1.0, Delta=d, U=U)
             for d, U in ((0.5, 0.5), (3.0, 0.5), (2.5, 1.0))]
    _assert_batched_equals_lone(cells, "es", opts)
    (res0, _, used0), (res1, _, used1), (res2, _, used2) = _stage_b_as_alone(
        cells, "es", opts)
    assert opts.residual_tol <= res0 < NEWTON_HANDOVER and used0 < SCF_WINDOW
    assert res1 >= NEWTON_HANDOVER and used1 == 2 * SCF_WINDOW
    assert opts.residual_tol <= res2 < NEWTON_HANDOVER and used2 > 2 * SCF_WINDOW
    assert all(_without_convex_exit(solve_state, p, "es", opts).converged
               for p in cells)


def test_batched_row_the_energy_guard_rejects_goes_on_to_attempt_1_alone():
    # gs at L = 13, Delta = 6.5, U = -0.5: the convex exit does not finish
    # it, stage B stalls, and stage C's Newton steps from stage B's best
    # iterate reach the tolerance at an E above it. The guard rejects that
    # state, and the cell goes on to attempt 1 alone; its neighbours finish
    # in attempt 0
    opts = SolverOptions()
    cells = [ModelParams(L=13, J=1.0, Delta=d, U=-0.5) for d in (6.5, 2.0, 4.0)]
    starts = _assert_batched_equals_lone(cells, "gs", opts)
    v0, v, _, used, (res, u, n), polish, finished = starts[0]
    assert res >= opts.residual_tol and polish[:2] == (None, None) and finished is None
    p = cells[0]
    eps = quasiperiodic_potential(p)
    e_u = energy_of(p.J, eps, p.U, u)
    assert e_u <= min(energy_of(p.J, eps, p.U, v0), energy_of(p.J, eps, p.U, v))
    mu = _residual_mu(p.J, eps, p.U, u)[1]
    vn, ok, steps = eigensolve._newton_polish(p.J, eps, p.U, u.copy(), mu,
                                              opts.residual_tol, 40)
    assert ok and steps == polish[2] and energy_of(p.J, eps, p.U, vn) > e_u + 1e-12
    sol = solve_state(p, "gs", opts, start=starts[0])
    assert sol.converged and sol.iterations > used + n + steps
    for start in starts[1:]:
        assert start[4][0] < opts.residual_tol or start[5][0] is not None
        assert start[6] is not None


# (L, kind, U, Delta, r, E, iterations) of the cascade before stage B handed
# over to Newton at NEWTON_HANDOVER and stalled after SCF_WINDOW = 50 steps
# (it ran to residual_tol, with 100-step stall windows), but for the last two
# rows, recorded on the cascade with the handover. The L = 21 defocusing rows
# (gs at U = -1, es at U = 1) hold stalled blocks; the last two L = 144 rows
# finish in a retry of the cascade, at the attempt CASCADE_ATTEMPTS holds.
CASCADE_ORACLE = [
    (21, "gs", -1.0, 0.5, 0.7638701039454517, -1.9832592366770398, 135),
    (21, "gs", -1.0, 2.5, 0.2857735587518411, -2.837217304280702, 404),
    (21, "gs", -1.0, 4.0, 0.14970147294566927, -4.055508300346356, 555),
    (21, "gs", 1.0, 0.5, 0.41072957782453834, -2.0590737206549488, 629),
    (21, "gs", 1.0, 2.5, 0.055442368959513134, -3.3721224860447707, 121),
    (21, "gs", 1.0, 4.0, 0.05085164881924992, -4.748211688212812, 75),
    (21, "es", -1.0, 0.5, 0.3967214278138722, 2.0586321351924624, 553),
    (21, "es", -1.0, 2.5, 0.05599931036881728, 3.324951015616266, 129),
    (21, "es", -1.0, 4.0, 0.05106239296990144, 4.664816817211647, 81),
    (21, "es", 1.0, 0.5, 0.7562463203263505, 1.9827095672315198, 134),
    (21, "es", 1.0, 2.5, 0.29451868915155505, 2.7968098324052457, 555),
    (21, "es", 1.0, 4.0, 0.16378015129384665, 4.000145637579121, 505),
    (144, "es", -0.5, 1.0, 0.06478442747050914, 2.1538983348033542, 304),
    (144, "gs", -0.5, 2.5, 0.1080134430341452, -2.9400271780830103, 3310),
    (144, "es", -0.5, 0.5, 0.14730222707244123, 2.04180308810881, 18292),
]
# the attempt that finishes a CASCADE_ORACLE cell, where it is not attempt 0
CASCADE_ATTEMPTS = {(144, "gs", -0.5, 2.5): 1, (144, "es", -0.5, 0.5): 5}


@pytest.mark.parametrize("L, kind, U, delta, r, energy, iterations", CASCADE_ORACLE)
def test_cascade_lands_on_the_recorded_state(monkeypatch, L, kind, U, delta, r,
                                            energy, iterations):
    plan, attempts = eigensolve._stage_a_plan, []

    def stage_a_plan(attempt):      # called at the start of every attempt
        attempts.append(attempt)
        return plan(attempt)

    monkeypatch.setattr(eigensolve, "_stage_a_plan", stage_a_plan)
    sol = solve_state(ModelParams(L=L, J=1.0, Delta=delta, U=U), kind)
    assert sol.converged
    assert attempts[-1] == CASCADE_ATTEMPTS.get((L, kind, U, delta), 0)
    assert abs(participation_ratio(sol.state) - r) <= 1e-8
    # no higher in the solved model's energy (-E for es), no more iterations
    sign = -1.0 if kind == "es" else 1.0
    assert sign * sol.energy <= sign * energy + 1e-12
    assert sol.iterations <= iterations


def _dense_bordered_step(J, d, v, F, F_L):
    """The Newton step (dphi, dmu) by one dense solve of the whole bordered
    system [[T, -v], [v^T, 0]] [dphi, dmu] = -[F, F_L], T = tridiag(J) +
    diag(d): the reference for the Schur step."""
    L = len(v)
    Jm = np.zeros((L + 1, L + 1))
    Jm[:L, :L] = np.diag(d) + J * (np.eye(L, k=1) + np.eye(L, k=-1))
    Jm[:L, L], Jm[L, :L] = -v, v
    return np.linalg.solve(Jm, -np.append(F, F_L))


# Both solves are backward stable, so each is off the exact step by about
# machine epsilon times the bordered Jacobian's condition number, which
# reaches 1e7 on these inputs. 20,000 random draws from the same domains
# differed by at most 5.2e-11 of max(1, |step|): 1e-9 leaves a factor 20.
SCHUR_STEP_TOL = 1e-9


@given(L=st.integers(2, 200), J=st.floats(0.1, 2.0), sign=st.sampled_from([1.0, -1.0]),
       U=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), delta=st.floats(0.0, 8.0),
       phi=st.floats(0.0, 2.0 * np.pi), distance=st.floats(0.0, 12.0),
       seed=st.integers(0, 2**32 - 1))
def test_schur_newton_step_equals_the_dense_bordered_solve(L, J, sign, U, delta, phi,
                                                          distance, seed):
    # Newton's inputs at a state 10^-distance from the linear ground state;
    # at U = 0 and a large distance T = H0 - mu is nearly singular along v
    J *= sign
    eps = quasiperiodic_potential(ModelParams(L=L, J=J, Delta=delta, phi=phi))
    off = np.full(L - 1, J)
    _, v = _linear_edge_state(eps, off)
    v = v + 10.0 ** -distance * np.random.default_rng(seed).normal(size=L)
    v /= np.linalg.norm(v)
    F = apply_stencil(J, eps - U * v * v, v)
    mu = v @ F
    F -= mu * v
    F_L = 0.5 * (v @ v - 1.0)
    d = eps - 3.0 * U * v * v - mu
    d_v, d_mu = eigensolve._newton_step(off, d, v, F, F_L)
    want = _dense_bordered_step(J, d, v, F, F_L)
    err = np.max(np.abs(np.append(d_v, d_mu) - want))
    assert err <= SCHUR_STEP_TOL * max(1.0, np.max(np.abs(want)))


def _failing_dgtsv(failure, L=None):
    """dgtsv that reports T singular (info = 1), or that solves but returns
    b = 0, so that |v.b| falls below the Schur step's threshold; or
    ("singular block") that reports the second L x L block singular (info =
    L + 1) wherever it is called on several blocks stacked, and the
    positions it reported that on in its `reported` list."""
    def dgtsv(dl, d, du, b):
        if failure == "singular":
            return dl, d, du, b, 1
        *factors, x, info = dgtsv_lapack(dl, d, du, b)
        if failure == "singular block":
            if len(d) > L:
                dgtsv.reported.append(L + 1)
                return *factors, x, L + 1
            return *factors, x, info
        x[:, 1] = 0.0
        return *factors, x, info
    dgtsv.reported = []
    return dgtsv


@pytest.mark.parametrize("failure", ["singular", "small border"])
@pytest.mark.parametrize("L, kind, U, delta, r, energy, iterations",
                         [CASCADE_ORACLE[1], CASCADE_ORACLE[12]])
def test_dense_fallback_finishes_a_cell_as_the_schur_step(monkeypatch, failure, L, kind,
                                                        U, delta, r, energy,
                                                        iterations):
    params = ModelParams(L=L, J=1.0, Delta=delta, U=U)
    want = participation_ratio(solve_state(params, kind).state)
    dense, calls = eigensolve._bordered_dense_step, []

    def counted(*args):
        calls.append(None)
        return dense(*args)

    monkeypatch.setattr(eigensolve, "dgtsv", _failing_dgtsv(failure))
    monkeypatch.setattr(eigensolve, "_bordered_dense_step", counted)
    sol = solve_state(params, kind)
    assert calls and sol.converged
    assert abs(participation_ratio(sol.state) - want) <= 1e-12
    assert abs(participation_ratio(sol.state) - r) <= 1e-8
    # in a batch with two neighbours, every row whose stacked step fails
    # takes the lone step, dense here, as the lone solve does: the convex
    # exit's steps (gs at U = -1) or stage C's (es at U = -0.5)
    cells = [params] + [replace(params, Delta=delta + dd) for dd in (-0.5, 0.5)]
    calls.clear()
    starts = batched_starts(cells, kind)
    assert calls
    for p, start in zip(cells, starts):
        _assert_same_solution(solve_state(p, kind, start=start), solve_state(p, kind))


def _stage_a_rows(cells, opts):
    """Per-row J, U, eps, linear ground states and attempt 0's stage A of
    ground-state cells."""
    J, U = np.array([p.J for p in cells]), np.array([p.U for p in cells])
    eps = np.array([quasiperiodic_potential(p) for p in cells])
    v0 = np.array([_linear_edge_state(row, np.full(p.L - 1, p.J))[1]
                   for row, p in zip(eps, cells)])
    args = (2000, IMAG_TIME_STEP, 1e-3, opts.max_iterations)
    return (J, U, eps, v0, *_imag_time_rows(J, eps, U, v0, *args))


@pytest.mark.parametrize("failure", ["lapack", "non-finite", "singular block"])
def test_batched_stage_b_row_that_fails_leaves_the_others_bitwise(monkeypatch,
                                                                  failure):
    # on a batch sharing U and on one mixing U (row 1, the failing one, keeps
    # U = -1 in both)
    for us in ((-1.0, -1.0, -1.0), (0.7, -1.0, 0.4)):
        with monkeypatch.context() as mp:
            if failure == "singular block":
                _check_singular_newton_block(mp, us)
            else:
                _check_failing_stage_b_row(mp, failure, us)


def _check_singular_newton_block(monkeypatch, us):
    """The Newton steps of a batch (the convex exit's and stage C's) with
    the second block of every stacked dgtsv call reported singular: the row
    holding it takes the lone step, the call is repeated on the others, and
    every cell's solve is bitwise its lone solve."""
    cells = [ModelParams(L=13, J=1.0, Delta=d, U=U) for d, U in zip((0.5, 6.0, 3.0), us)]
    lone = [solve_state(p, "gs") for p in cells]
    failing = _failing_dgtsv("singular block", 13)
    monkeypatch.setattr(eigensolve, "dgtsv", failing)
    starts = batched_starts(cells, "gs")
    assert failing.reported
    for p, start, want in zip(cells, starts, lone):
        _assert_same_solution(solve_state(p, "gs", start=start), want)


def _check_failing_stage_b_row(monkeypatch, failure, us):
    opts = SolverOptions()
    cells = [ModelParams(L=13, J=1.0, Delta=d, U=U) for d, U in zip((0.5, 6.0, 3.0), us)]
    J, U, eps, v0, v, step, used = _stage_a_rows(cells, opts)
    off = np.full(12, 1.0)
    args = (2000, opts.residual_tol)
    error = RuntimeError
    if failure == "non-finite":
        v[1, 4] = np.inf
    else:
        # LAPACK info = 7 on row 1's eighth frozen Hamiltonian (|U| n <= 1
        # keeps it within 1 of that row's potential and no other row's)
        calls, error, lapack = [], np.linalg.LinAlgError, eigensolve.dstebz

        def dstebz(d, *rest):
            out = lapack(d, *rest)
            if np.max(np.abs(d - eps[1])) <= 1.0:
                calls.append(d)
                if len(calls) == 8:
                    return (*out[:4], 7)
            return out

        monkeypatch.setattr(eigensolve, "dstebz", dstebz)
    with np.errstate(all="ignore"):
        rows = _scf_rows(J, eps, U, v, *args, opts.max_iterations - used)
        if failure == "lapack":
            calls.clear()
        with pytest.raises(error) as lone:
            _scf_block(J[1], off, eps[1], U[1], v[1], *args,
                       opts.max_iterations - used[1])
    assert rows[1] is None
    if failure == "lapack":
        assert len(calls) == 8 and "LAPACK info=7" in str(lone.value)
        # the row's cascade runs stage B alone and raises the lone error (a
        # convex row reaches stage B only where the convex exit rejects it)
        monkeypatch.setattr(eigensolve, "_newton_exit", lambda *_: None)
        calls.clear()
        with pytest.raises(error) as cascade:
            solve_state(cells[1], "gs", opts,
                        start=(v0[1], v[1], step[1], used[1], None, None, None))
        assert str(cascade.value) == str(lone.value)
    for i in (0, 2):
        res, best, n = _scf_block(J[i], off, eps[i], U[i], v[i], *args,
                                  opts.max_iterations - used[i])
        assert _bits([rows[i][0], *rows[i][1]]) == _bits([res, *best])
        assert rows[i][2] == n


def test_batched_row_with_non_finite_potential_fails_alone():
    # on a batch sharing U and on one mixing U
    for us in ((0.5, 0.5, 0.5), (0.5, -0.8, 1.2)):
        _check_non_finite_potential_row(us)


def _check_non_finite_potential_row(us):
    opts = SolverOptions()
    cells = [ModelParams(L=13, J=1.0, Delta=d, U=U) for d, U in zip((0.5, 1.5, 2.5), us)]
    J, U = np.ones(3), np.array(us)
    eps = np.array([quasiperiodic_potential(p) for p in cells])
    off = np.full(12, 1.0)
    v0 = np.array([_linear_edge_state(row, off)[1] for row in eps])
    eps[1, 4] = np.inf
    args = (2000, IMAG_TIME_STEP, 1e-3, opts.max_iterations)
    with np.errstate(all="ignore"):
        v, step, used = _imag_time_rows(J, eps, U, v0, *args)
        with pytest.raises(RuntimeError) as lone:
            _imag_time_block(1.0, eps[1], U[1], v0[1], *args)
        # the row's cascade goes on from the batch and raises the lone error
        with pytest.raises(RuntimeError) as batched:
            solve_state(cells[1], "gs", opts,
                        start=(v0[1], v[1], step[1], used[1], None, None, None))
    assert str(batched.value) == str(lone.value)
    for i in (0, 2):
        v_lone, step_lone, used_lone = _imag_time_block(1.0, eps[i], U[i], v0[i], *args)
        assert _bits(v[i]) == _bits(v_lone)
        assert (step[i], used[i]) == (step_lone, used_lone)


def test_focusing_increases_localization():
    p0 = ModelParams(L=21, J=1.0, Delta=1.8)
    r0 = participation_ratio(solve_state(p0, "gs").state)
    rp = participation_ratio(solve_state(
        ModelParams(L=21, J=1.0, Delta=1.8, U=0.5), "gs").state)
    rm = participation_ratio(solve_state(
        ModelParams(L=21, J=1.0, Delta=1.8, U=-0.5), "gs").state)
    assert rp < r0 < rm


# -------------------------
# The convex exit after stage A
# -------------------------

def _exit_outcomes(solve, *args):
    """solve(*args) and what each _newton_exit call it made returned."""
    outcomes, finish = [], eigensolve._newton_exit

    def spy(*a):
        outcomes.append(finish(*a))
        return outcomes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_newton_exit", spy)
        return solve(*args), outcomes


@settings(max_examples=60)
@given(L=st.integers(2, 34), delta=st.floats(0.0, 8.0),
       U=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), kind=st.sampled_from(["gs", "es"]),
       phi=st.floats(allow_nan=False, allow_infinity=False))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_convex_exit_is_sound(L, delta, U, kind, phi):
    # against the cascade without the exit: bitwise where the exit is off or
    # rejects; where it finishes, certified, no higher in E, and at the same
    # state wherever the cascade's own state is certified too
    p = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=U)
    sol, outcomes = _exit_outcomes(solve_state, p, kind)
    ref = _without_convex_exit(solve_state, p, kind)
    if p.for_kind(kind).U > 0:
        assert outcomes == []
    if all(out is None for out in outcomes):
        _assert_same_solution(sol, ref)
        return
    assert sol.converged and sol.certified
    sign = -1.0 if kind == "es" else 1.0       # E of the model the kind solves
    assert sign * sol.energy <= sign * ref.energy + 1e-12
    if ref.certified:
        assert abs(participation_ratio(sol.state) - participation_ratio(ref.state)) <= 1e-8


# (L, kind, U, Delta, r, E, iterations) of cells the exit leaves to the
# cascade, as the cascade solved them before the exit existed (0.1.9): the
# first two end uncertified, and the third is focusing
FALLBACK_CELLS = [
    (21, "gs", -1.0, 8.0, 0.04881091328574938, -7.648437005140082, 155),
    (144, "gs", -0.5, 4.888, 0.048892245099701054, -5.073753353102648, 3315),
    (144, "gs", 0.5, 1.064, 0.03890367963309929, -2.1767126254190368, 143),
]


@pytest.mark.parametrize("L, kind, U, delta, r, energy, iterations", FALLBACK_CELLS)
def test_cells_the_exit_leaves_are_solved_bitwise_as_before(L, kind, U, delta, r,
                                                            energy, iterations):
    p = ModelParams(L=L, J=1.0, Delta=delta, U=U)
    sol, outcomes = _exit_outcomes(solve_state, p, kind)
    assert outcomes == ([] if U > 0 else [None])
    _assert_same_solution(sol, _without_convex_exit(solve_state, p, kind))
    assert _bits([participation_ratio(sol.state), sol.energy]) == _bits([r, energy])
    assert sol.iterations == iterations and sol.converged
    assert sol.certified == (U > 0)


def test_certified_newton_state_above_the_focusing_ground_state():
    # why a cold solve runs the exit only where U <= 0: at this cell Newton
    # from stage A passes the energy guard and the certificate, so the exit
    # accepts it, yet the cascade ends 0.0046 lower in E, at a state with r
    # 0.039 in place of 0.103
    p = ModelParams(L=144, J=1.0, Delta=1.064, U=0.5)
    eps = quasiperiodic_potential(p)
    _, v0 = _linear_edge_state(eps, np.full(p.L - 1, p.J))
    max_steps, target = eigensolve._stage_a_plan(0)
    v, _, _ = _imag_time_block(p.J, eps, p.U, v0, max_steps, IMAG_TIME_STEP, target,
                               50_000)
    mu = _residual_mu(p.J, eps, p.U, v)[1]
    vn, ok, _ = eigensolve._newton_polish(p.J, eps, p.U, v.copy(), mu, 1e-10, 40)
    e_newton = energy_of(p.J, eps, p.U, vn)
    assert ok and e_newton <= min(energy_of(p.J, eps, p.U, v0),
                                  energy_of(p.J, eps, p.U, v)) + 1e-12
    assert eigensolve._certified(p.J, eps, p.U, vn, _residual_mu(p.J, eps, p.U, vn)[1])
    assert e_newton == pytest.approx(-2.172161, abs=1e-6)
    assert abs(participation_ratio(LatticeState(vn)) - 0.1026) < 1e-4
    sol = solve_state(p, "gs")
    assert sol.energy == pytest.approx(-2.176713, abs=1e-6)
    assert abs(participation_ratio(sol.state) - 0.0389) < 1e-4
    best_e = min(energy_of(p.J, eps, p.U, v0), energy_of(p.J, eps, p.U, v))
    (_, state, steps), _ = eigensolve._newton_exit(p.J, eps, p.U, v, best_e, 1e-10,
                                                   50_000)
    assert state.tobytes() == vn.tobytes() and steps <= 40


# -------------------------
# Excited state via negation
# -------------------------

@given(L=st.integers(2, 34), delta=st.floats(0.0, 8.0), U=st.floats(-1.0, 1.0),
       phi=st.floats(allow_nan=False, allow_infinity=False))
def test_excited_state_duality_elementwise(L, delta, U, phi):
    # the highest excited state is the negated model's ground state, bit for
    # bit, with mu and E negated back
    p = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=U)
    es = solve_state(p, "es")
    gs = solve_state(p.negated(), "gs")
    assert es.state.amplitudes.tobytes() == gs.state.amplitudes.tobytes()
    assert (es.residual, es.iterations, es.converged) == (
        gs.residual, gs.iterations, gs.converged)
    assert _bits([es.mu, es.energy]) == _bits([-gs.mu, -gs.energy])
    # the ES residual is measured against the original parameters
    if es.converged:
        assert residual(p, es.state, es.mu) < 1e-9


def test_solve_state_dispatch():
    p = ModelParams(L=13, J=1.0, Delta=1.0, U=0.2)
    assert solve_state(p, "gs").mu < solve_state(p, "es").mu
    for kind in ("middle", "ground", "highest-excited"):
        with pytest.raises(ValueError, match="kind must be 'gs' or 'es'"):
            solve_state(p, kind)


def test_require_converged_returns_a_converged_solve_and_names_an_unconverged_one():
    p = ModelParams(L=13, J=1.0, Delta=1.0, U=0.25)
    sol = solve_state(p, "es")
    assert require_converged(sol, p, "es") is sol
    short = solve_state(p, "es", SolverOptions(max_iterations=3))
    assert not short.converged
    with pytest.raises(RuntimeError) as exc:
        require_converged(short, p, "es")
    assert str(exc.value) == ("solver did not converge (kind=es, U=0.25, Delta=1.0, "
                              f"residual={short.residual:.2e})")


def test_warm_solve_does_not_depend_on_the_layout_of_its_start_state():
    # a solved state is kept as the strided .real view of its amplitudes; a
    # contiguous copy of it must start the same solve, bit for bit
    src = ModelParams(L=21, J=1.0, Delta=3.4000000000000004, U=-0.5)
    strided = solve_state(src, "gs").state.amplitudes.real
    assert not strided.flags.c_contiguous
    p = ModelParams(L=21, J=1.0, Delta=3.3500000000000005, U=-0.5)
    a, b = (solve_state(p, "gs", start=warm_start(p, "gs", v, SolverOptions()))
            for v in (strided, np.ascontiguousarray(strided)))
    assert a.converged and a.certified
    assert a.state.amplitudes.tobytes() == b.state.amplitudes.tobytes()
    assert (a.mu, a.energy, a.residual, a.iterations) == (
        b.mu, b.energy, b.residual, b.iterations)


def _bare_start(p, kind, v):
    """warm_start without its Newton exit: the cascade goes on from v, runs
    the exit itself where U <= 0 in the model the kind solves, and stage B
    from v otherwise."""
    solved = p.for_kind(kind)
    eps = quasiperiodic_potential(solved)
    _, v0 = _linear_edge_state(eps, np.full(solved.L - 1, solved.J))
    return v0, np.ascontiguousarray(v), IMAG_TIME_STEP, 0, None, None, None


def _neighbour_state(p, kind, step):
    """The state solve_state gives at p's Delta + step, as a scan keeps it."""
    return solve_state(replace(p, Delta=p.Delta + step), kind).state.amplitudes.real


@pytest.mark.parametrize("kind, U", [("gs", 0.5), ("es", -0.5)])
def test_focusing_warm_start_the_exit_finishes_runs_no_stage_b(monkeypatch, kind, U):
    # focusing in the model the kind solves: the exit's Newton steps from
    # the neighbour's state are the whole solve
    p = ModelParams(L=21, J=1.0, Delta=1.05, U=U)
    start = warm_start(p, kind, _neighbour_state(p, kind, -0.05), SolverOptions())
    _, state, steps = start[4]

    def no_stage_b(*_):
        raise AssertionError("stage B ran")

    monkeypatch.setattr(eigensolve, "_scf_block", no_stage_b)
    sol = solve_state(p, kind, start=start)
    assert sol.converged and sol.certified
    assert sol.iterations == steps and 0 < steps <= 40
    assert sol.state.amplitudes.real.tobytes() == state.tobytes()


@pytest.mark.parametrize("reject", ["certificate", "guard"])
@pytest.mark.parametrize("kind, U", [("gs", 0.5), ("es", -0.5), ("gs", -0.5)])
def test_warm_start_the_exit_rejects_is_the_bare_start(kind, U, reject):
    # a rejected exit leaves the start bare but for the record of that
    # exit, and the solve is the cascade's from the bare start: stage B from
    # v, after the cascade's own exit where U <= 0, which rejects v again
    p = ModelParams(L=21, J=1.0, Delta=1.05, U=U)
    v = _neighbour_state(p, kind, -0.05)
    guarded = eigensolve._guarded_newton
    with pytest.MonkeyPatch.context() as mp:
        if reject == "certificate":
            mp.setattr(eigensolve, "_certified", lambda *_: False)
        else:
            mp.setattr(eigensolve, "_guarded_newton",
                       lambda *args: (None, None, guarded(*args)[2]))
        start = warm_start(p, kind, v, SolverOptions())
        bare = _bare_start(p, kind, v)
        assert start[2:] == (IMAG_TIME_STEP, 0, False, None, None)
        assert bare[2:] == (IMAG_TIME_STEP, 0, None, None, None)
        assert _bits([*start[0], *start[1]]) == _bits([*bare[0], *bare[1]])
        _assert_same_solution(solve_state(p, kind, start=start),
                              solve_state(p, kind, start=bare))


@pytest.mark.parametrize("kind, U", [("gs", -0.5), ("es", 0.5), ("gs", 0.0), ("gs", 0.5)])
def test_warm_solve_runs_a_rejected_exit_once(monkeypatch, kind, U):
    # the start records its rejected exit, so the cascade does not run the
    # exit again on the same inputs; the solve is the one the cascade gives
    # when it runs (and rejects) the exit itself
    p = ModelParams(L=21, J=1.0, Delta=1.05, U=U)
    v = _neighbour_state(p, kind, -0.05)
    calls = []

    def reject(*args):
        calls.append(args)

    monkeypatch.setattr(eigensolve, "_newton_exit", reject)
    sol = solve_state(p, kind, start=warm_start(p, kind, v, SolverOptions()))
    assert len(calls) == 1
    bare = solve_state(p, kind, start=_bare_start(p, kind, v))
    assert len(calls) == (2 if p.for_kind(kind).U <= 0 else 1)
    _assert_same_solution(sol, bare)


def _exit_calls(solve, *args, **kwargs):
    """solve(*args, **kwargs) and the arguments of each _newton_exit call it
    made, as bytes."""
    calls, finish = [], eigensolve._newton_exit

    def spy(*a):
        calls.append(_bits(np.concatenate([np.ravel(x) for x in a])))
        return finish(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_newton_exit", spy)
        return solve(*args, **kwargs), calls


@settings(max_examples=30)
@given(L=st.integers(2, 34), delta=st.floats(0.25, 8.0), step=st.floats(-0.25, 0.25),
       U=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), kind=st.sampled_from(["gs", "es"]),
       phi=st.floats(0.0, 2.0 * np.pi))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_convex_warm_solve_is_the_bare_starts(L, delta, step, U, kind, phi):
    # U <= 0 in the model the kind solves: warm_start runs the exit the
    # cascade runs from the bare start, with the same arguments (the energy
    # guard's min(E(v0), E(v)) and the budget too), and the solve is the
    # same bit for bit
    p = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=-U if kind == "gs" else U)
    v = _neighbour_state(p, kind, step)
    start, warm = _exit_calls(warm_start, p, kind, v, SolverOptions())
    sol, bare = _exit_calls(solve_state, p, kind, start=_bare_start(p, kind, v))
    assert warm == bare[:1]
    _assert_same_solution(solve_state(p, kind, start=start), sol)


def _assert_same_start(a, b):
    """Two solve_state starts, or lists of them, are equal, arrays and
    floats bit for bit."""
    if isinstance(a, (tuple, list)):
        assert type(b) is type(a) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_start(x, y)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert _bits(a) == _bits(b)
    else:
        assert type(a) is type(b) and a == b


@settings(max_examples=25)
@given(L=st.integers(2, 34), deltas=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4),
       us=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4, unique=True),
       phi=st.floats(0.0, 2.0 * np.pi),
       kinds=st.sampled_from([("gs",), ("es",), ("gs", "es")]))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_batched_starts_solve_one_edge_state_per_distinct_model(L, deltas, us, phi, kinds):
    # cells that differ only in U share the linear ground state, which
    # depends on (J, eps) alone: one _linear_edge_state call per distinct
    # (J, eps) of the models the kinds solve, and every start is bitwise
    # the start of its cell batched alone
    cells = [(ModelParams(L=L, J=1.0, Delta=d, phi=phi, U=u), kind)
             for kind in kinds for d in deltas for u in us]
    calls, edge = [], eigensolve._linear_edge_state

    def counted(eps, off):
        calls.append(None)
        return edge(eps, off)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_linear_edge_state", counted)
        starts = batched_starts([p for p, _ in cells], [kind for _, kind in cells])
    solved = [p.for_kind(kind) for p, kind in cells]
    assert len(calls) == len({(_bits(q.J), quasiperiodic_potential(q).tobytes())
                              for q in solved})
    for (p, kind), start in zip(cells, starts):
        _assert_same_start(start, batched_starts([p], [kind])[0])


def _exit_cases(L, rows, phi):
    """(ModelParams, kind, state) of rows (Delta, U, kind, start), start a
    step to the neighbour whose solved state the row starts from, or None
    for a start far from any solution (the linear ground state of the
    opposite kind), which the exit rejects or does not certify."""
    cases = []
    for delta, U, kind, step in rows:
        p = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=U)
        if step is None:
            other = "es" if kind == "gs" else "gs"
            v = solve_state(replace(p, U=0.0), other).state.amplitudes.real
        else:
            v = _neighbour_state(p, kind, step)
        cases.append((p, kind, v))
    return cases


@settings(max_examples=30)
@given(L=st.integers(2, 34), phi=st.floats(0.0, 2.0 * np.pi),
       rows=st.lists(st.tuples(st.floats(0.25, 8.0), st.floats(-2.0, 2.0),
                               st.sampled_from(["gs", "es"]),
                               st.one_of(st.none(), st.floats(-0.3, 0.3))),
                     min_size=1, max_size=6),
       cap=st.one_of(st.just(50_000), st.integers(1, 6)),
       uncertify=st.one_of(st.none(), st.integers(2, 4)))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_rows_warm_starts_are_the_lone_warm_starts(L, phi, rows, cap, uncertify):
    # the Newton exits of several warm starts as rows: each start bitwise
    # the lone warm_start, on both signs of U in the model the kind solves,
    # where the exit is accepted (the finished solve too), rejected (False),
    # cut off by a small max_iterations, or refused its certificate (with
    # `uncertify`, every state whose bytes sum to 0 mod it)
    cases = _exit_cases(L, rows, phi)
    opts = SolverOptions(max_iterations=cap)
    certified = eigensolve._certified
    with pytest.MonkeyPatch.context() as mp:
        if uncertify:
            mp.setattr(eigensolve, "_certified", lambda J, eps, U, v, mu: (
                certified(J, eps, U, v, mu) and sum(v.tobytes()) % uncertify != 0))
        batch = warm_starts([p for p, _, _ in cases], [kind for _, kind, _ in cases],
                            [v for *_, v in cases], opts)
        for (p, kind, v), start in zip(cases, batch):
            lone = warm_start(p, kind, v, opts)
            _assert_same_start(start, lone)
            _assert_same_solution(solve_state(p, kind, opts, start=start),
                                  solve_state(p, kind, opts, start=lone))


@pytest.mark.parametrize("U", [-0.5, 0.5])
def test_rows_warm_starts_cover_every_exit_outcome(monkeypatch, U):
    # fixed rows of gs at U on one side of 0: accepted exits, an exit the
    # guard or Newton rejects, one cut off by the budget, and one refused
    # its certificate, each as the lone warm_start
    cases = _exit_cases(21, [(1.05, U, "gs", -0.05), (2.5, U, "gs", 0.05),
                             (1.05, U, "gs", None)], 0.0)
    params, kinds, states = ([case[i] for case in cases] for i in range(3))
    lone = [warm_start(p, kind, v, SolverOptions()) for p, kind, v in cases]
    assert [bool(start[4]) for start in lone] == [True, True, False]
    _assert_same_start(warm_starts(params, kinds, states, SolverOptions()), lone)
    spent = SolverOptions(max_iterations=1)
    cut = warm_starts(params, kinds, states, spent)
    assert not cut[0][4]
    _assert_same_start(cut, [warm_start(p, kind, v, spent) for p, kind, v in cases])
    refused = lone[1][4][1].tobytes()
    certified = eigensolve._certified
    monkeypatch.setattr(eigensolve, "_certified", lambda J, eps, U, v, mu: (
        v.tobytes() != refused and certified(J, eps, U, v, mu)))
    batch = warm_starts(params, kinds, states, SolverOptions())
    assert [bool(start[4]) for start in batch] == [True, False, False]
    _assert_same_start(batch, [warm_start(p, kind, v, SolverOptions())
                               for p, kind, v in cases])


@given(delta=st.floats(0.5, 4.0), step=st.floats(-0.5, 0.5),
       U=st.sampled_from([-0.5, 0.5]), kind=st.sampled_from(["gs", "es"]))
def test_warm_solve_stays_within_max_iterations(delta, step, U, kind):
    # every cap up to one past the steps the exit takes without one: the
    # exit takes at most min(40, cap) Newton steps, and stage B after a
    # rejected exit the rest of the budget
    p = ModelParams(L=21, J=1.0, Delta=delta, U=U)
    v = _neighbour_state(p, kind, step)
    free = warm_start(p, kind, v, SolverOptions())[4]
    for cap in range(1, (free[2] if free else 3) + 2):
        opts = SolverOptions(max_iterations=cap)
        start = warm_start(p, kind, v, opts)
        assert not start[4] or start[4][2] <= cap
        assert solve_state(p, kind, opts, start=start).iterations <= cap


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
    sol = solve_state(p, "gs")
    assert sol.converged
    e_grid = _grid_minimum_energy(p)
    assert sol.energy <= e_grid + 1e-12       # solver can only do better
    assert abs(sol.energy - e_grid) < 1e-3
