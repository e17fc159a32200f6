"""Self-consistent ground/excited eigenstate solver."""

import importlib.machinery
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
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
                             require_converged)
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
    """_imag_time_block's loop with each step's arrays written as they were
    before it ran without temporaries: w = v - step * g and the gradient
    h - U * n * w. (apply_stencil is the two-product stencil bit for bit,
    which tests/test_model.py checks.)"""
    def energy_gradient(w):
        h = apply_stencil(J, eps, w)
        n = w * w
        return w.dot(h) - 0.5 * n.dot(U * n), h - U * n * w

    e_prev, g = energy_gradient(v)
    used = 0
    for k in range(min(max_steps, budget)):
        used += 1
        w = v - step * g
        w /= np.sqrt(w.dot(w))
        e, g_w = energy_gradient(w)
        if e > e_prev + 1e-15:
            step *= 0.5
            continue
        v, e_prev, g = w, e, g_w
        step = min(step * 1.02, 0.2)
        if k % 50 == 0 and _projected(v, g)[0] < res_target:
            break
    return v, step, used


@given(L=st.integers(2, 34), J=st.floats(0.1, 2.0), sign=st.sampled_from([1.0, -1.0]),
       U=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), delta=st.floats(0.0, 8.0),
       phi=st.floats(0.0, 2.0 * np.pi), max_steps=st.integers(1, 400))
def test_stage_a_is_bitwise_the_reference_loop(L, J, sign, U, delta, phi, max_steps):
    J *= sign
    eps = quasiperiodic_potential(ModelParams(L=L, J=J, Delta=delta, phi=phi))
    _, v0 = _linear_edge_state(eps, np.full(L - 1, J))
    args = (max_steps, IMAG_TIME_STEP, 1e-3, 50_000)
    v, step, used = _imag_time_block(J, eps, U, v0, *args)
    v_ref, step_ref, used_ref = _imag_time_reference(J, eps, U, v0, *args)
    assert _bits([*v, step]) == _bits([*v_ref, step_ref])
    assert used == used_ref


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
       phi=st.floats(0.0, 2.0 * np.pi), cap=st.integers(1, 400))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_batched_stage_a_equals_lone_solves(L, cells, phi, cap):
    # one batch of cells with their own Delta, U and kind
    opts = SolverOptions(max_iterations=cap)
    params = [ModelParams(L=L, J=1.0, Delta=d, phi=phi, U=U) for d, U, _ in cells]
    _assert_batched_equals_lone(params, [kind for *_, kind in cells], opts)


def _assert_batched_equals_lone(cells, kind, opts):
    """Solve the cells from batched_starts and alone; compare bitwise.
    `kind` is one kind or one per cell. Returns the starts."""
    starts = batched_starts(cells, kind, opts)
    kinds = [kind] * len(cells) if isinstance(kind, str) else kind
    for params, k, start in zip(cells, kinds, starts):
        lone = solve_state(params, k, opts)
        batched = solve_state(params, k, opts, start=start)
        assert batched.state.amplitudes.tobytes() == lone.state.amplitudes.tobytes()
        assert _bits([batched.mu, batched.energy, batched.residual]) == \
            _bits([lone.mu, lone.energy, lone.residual])
        assert (batched.iterations, batched.converged) == (lone.iterations, lone.converged)
    return starts


def _without_convex_exit(solve, *args, **kwargs):
    """solve(*args, **kwargs) with _convex_finish rejecting every cell: the
    cascade as it runs where the exit after stage A does not certify."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_convex_finish", lambda *_: None)
        return solve(*args, **kwargs)


def _assert_same_solution(a, b):
    assert a.state.amplitudes.tobytes() == b.state.amplitudes.tobytes()
    assert _bits([a.mu, a.energy, a.residual]) == _bits([b.mu, b.energy, b.residual])
    assert (a.iterations, a.converged, a.certified) == (b.iterations, b.converged,
                                                       b.certified)


@given(deltas=st.lists(st.sampled_from([0.5, 1.5, 2.0, 3.0, 5.0]), min_size=1,
                       max_size=5),
       U=st.sampled_from([0.5, 1.0]), kind=st.sampled_from(["gs", "es"]),
       phi=st.floats(0.0, 2.0 * np.pi), frac=st.floats(0.0, 1.0))
def test_batched_stage_b_equals_lone_when_the_cap_ends_inside_it(deltas, U, kind,
                                                                  phi, frac):
    # focusing cells (U > 0 in the model each kind solves), which the convex
    # exit leaves to stage B
    U = U if kind == "gs" else -U
    cells = [ModelParams(L=13, J=1.0, Delta=d, phi=phi, U=U) for d in deltas]
    _, _, _, used_a, (_, _, used_b) = batched_starts(cells, kind)[0]
    # a cap that stops the first cell's stage B after 1 ... used_b - 1 steps
    cut = 1 + int(frac * (used_b - 2)) if used_b > 1 else 1
    opts = SolverOptions(max_iterations=used_a + cut)
    starts = _assert_batched_equals_lone(cells, kind, opts)
    # the capped cell really ran stage B, and stage B ran to the cap
    p = cells[0].for_kind(kind)
    _, v, _, _, scf = starts[0]
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
        start = (v0[i], v[i], step[i], used[i], rows[i])
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


def _failing_dgtsv(failure):
    """dgtsv that reports T singular (info = 1), or that solves but returns
    b = 0, so that |v.b| falls below the Schur step's threshold."""
    def dgtsv(dl, d, du, b):
        if failure == "singular":
            return dl, d, du, b, 1
        *factors, x, info = dgtsv_lapack(dl, d, du, b)
        x[:, 1] = 0.0
        return *factors, x, info
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


def _stage_a_rows(cells, opts):
    """Per-row J, U, eps, linear ground states and attempt 0's stage A of
    ground-state cells."""
    J, U = np.array([p.J for p in cells]), np.array([p.U for p in cells])
    eps = np.array([quasiperiodic_potential(p) for p in cells])
    v0 = np.array([_linear_edge_state(row, np.full(p.L - 1, p.J))[1]
                   for row, p in zip(eps, cells)])
    args = (2000, IMAG_TIME_STEP, 1e-3, opts.max_iterations)
    return (J, U, eps, v0, *_imag_time_rows(J, eps, U, v0, *args))


@pytest.mark.parametrize("failure", ["lapack", "non-finite"])
def test_batched_stage_b_row_that_fails_leaves_the_others_bitwise(monkeypatch,
                                                                  failure):
    # on a batch sharing U and on one mixing U (row 1, the failing one, keeps
    # U = -1 in both)
    for us in ((-1.0, -1.0, -1.0), (0.7, -1.0, 0.4)):
        with monkeypatch.context() as mp:
            _check_failing_stage_b_row(mp, failure, us)


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
        monkeypatch.setattr(eigensolve, "_convex_finish", lambda *_: None)
        calls.clear()
        with pytest.raises(error) as cascade:
            solve_state(cells[1], "gs", opts,
                        start=(v0[1], v[1], step[1], used[1], None))
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
                        start=(v0[1], v[1], step[1], used[1], None))
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
    """solve(*args) and what each _convex_finish call it made returned."""
    outcomes, finish = [], eigensolve._convex_finish

    def spy(*a):
        outcomes.append(finish(*a))
        return outcomes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_convex_finish", spy)
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
        assert outcomes == [None]
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
    assert outcomes == [None]
    _assert_same_solution(sol, _without_convex_exit(solve_state, p, kind))
    assert _bits([participation_ratio(sol.state), sol.energy]) == _bits([r, energy])
    assert sol.iterations == iterations and sol.converged
    assert sol.certified == (U > 0)


def test_certified_newton_state_above_the_focusing_ground_state():
    # why the exit stays off where U > 0: at this cell Newton from stage A
    # passes the energy guard and the certificate, yet the cascade ends
    # 0.0046 lower in E, at a state with r 0.039 in place of 0.103
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
    assert eigensolve._convex_finish(p.J, eps, p.U, v0, v, 1e-10, 50_000) is None


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
