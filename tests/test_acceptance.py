"""Acceptance suite: thirteen end-to-end checks of the toolkit, one test per
criterion, each emitting a single pass/fail line under ``pytest -v``.

All tolerances are fixed here, not tuned to runs. Criterion 6 asserts the
1e-6 integrator-oracle bound over the full t <= 10 window against the exact
open-chain solution, the method-of-images sum of Bessel functions, so the
window includes the reflection of the spreading front off the hard walls.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from nlaa.dynamics import EXPERIMENT_RAMP, evolve, ramp_prepare, \
    transport_experiment
from nlaa.eigensolve import linear_spectrum, solve_state
from nlaa.fitting import fit_transition, piecewise_model
from nlaa.gaa import GaaParams, extract_alpha_star, gaa_classify_spectrum
from nlaa.model import LatticeState, ModelParams, apply_hamiltonian, \
    energy_functional, momentum_width, participation_ratio, \
    quasiperiodic_potential
from nlaa.phasescan import critical_r, transition_for_u


def _deltas(delta_max, step):
    """The coarse Delta grid 0, step, ... up to delta_max, as the CLI's
    phases and alpha-star build it."""
    return np.arange(0.0, delta_max + 0.5 * step, step)


def _linear_gs_r(L, delta, phi):
    p = ModelParams(L=L, J=1.0, Delta=delta, phi=phi)
    _, vecs = linear_spectrum(L, p.J, quasiperiodic_potential(p))
    n = np.abs(vecs[:, 0]) ** 2
    return float(1.0 / (L * np.sum(n ** 2)))


def test_criterion_01_aa_anchor_delta_c_both_kinds():
    # L=21, U=0: detected transition at Delta/J = 2.00 +/- 0.05, GS and ES
    for kind in ("gs", "es"):
        tr = transition_for_u(0.0, kind, _deltas(4.0, 0.05), L=21)
        assert tr.found, kind
        assert tr.delta_c == pytest.approx(2.00, abs=0.05), kind


def test_criterion_02_critical_r_value():
    # linear AA GS at Delta/J = 2: r = 0.103 +/- 0.010; when phi = 0 misses,
    # report the 32-sample phi scan and the phi closest to the target
    target, tol = 0.103, 0.010
    r0 = critical_r(21, "gs")
    if abs(r0 - target) <= tol:
        return
    phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    rs = np.array([_linear_gs_r(21, 2.0, p) for p in phis])
    best = int(np.argmin(np.abs(rs - target)))
    table = ", ".join(f"{p:.3f}:{r:.4f}" for p, r in zip(phis, rs))
    warnings.warn(
        f"critical r at phi=0 is {r0:.4f} (misses {target}+/-{tol}); "
        f"32-sample phi scan gives best phi={phis[best]:.4f} with "
        f"r={rs[best]:.4f}; full r(phi): {table}")
    assert rs[best] == pytest.approx(target, abs=tol)


def test_criterion_03_alpha_star_linearity():
    # slope of alpha*(U) over U/J in {-0.25..0.25 step 0.05} = -0.81 +/- 0.15
    # with R^2 > 0.98; both energy definitions reported, one within tolerance
    us = np.round(np.arange(-0.25, 0.2501, 0.05), 10)
    res = [extract_alpha_star(float(u), _deltas(8.0, 0.1), L=21,
                              energy_definition="mu")
           for u in us]
    a_mu = np.array([t.alpha_star for t in res])

    # E-definition from the same critical points, state energies re-evaluated
    a_e = []
    for t in res:
        e_g = solve_state(ModelParams(L=21, J=1.0, Delta=t.delta_c_gs,
                                      U=t.U), "gs").energy
        e_e = solve_state(ModelParams(L=21, J=1.0, Delta=t.delta_c_es,
                                      U=t.U), "es").energy
        a_e.append(0.0 if t.delta_c_gs == t.delta_c_es
                   else (t.delta_c_gs - t.delta_c_es) / (e_e - e_g))
    a_e = np.array(a_e)

    def line_stats(a):
        slope, intercept = np.polyfit(us, a, 1)
        pred = slope * us + intercept
        ss_tot = float(np.sum((a - a.mean()) ** 2))
        r2 = 1.0 - float(np.sum((a - pred) ** 2)) / ss_tot
        return float(slope), r2

    s_mu, r2_mu = line_stats(a_mu)
    s_e, r2_e = line_stats(a_e)
    warnings.warn(f"alpha*(U) slope: mu-definition {s_mu:.4f} (R2={r2_mu:.4f}),"
                  f" E-definition {s_e:.4f} (R2={r2_e:.4f})")
    assert (abs(s_mu + 0.81) <= 0.15 and r2_mu > 0.98) or \
        (abs(s_e + 0.81) <= 0.15 and r2_e > 0.98), (s_mu, r2_mu, s_e, r2_e)


def test_criterion_04_phase_boundary_shape():
    # Delta_c^g(U) non-increasing, Delta_c^e(U) non-decreasing over [-1, 1];
    # at U = +0.5 the GS boundary sits below 2 and the ES boundary above
    us = np.round(np.arange(-1.0, 1.001, 0.25), 10)
    dc = {}
    for kind in ("gs", "es"):
        vals = []
        for u in us:
            tr = transition_for_u(float(u), kind, _deltas(8.0, 0.1), L=21)
            assert tr.found, (kind, u)
            vals.append(tr.delta_c)
        dc[kind] = np.array(vals)
    assert np.all(np.diff(dc["gs"]) <= 0.0), dc["gs"]
    assert np.all(np.diff(dc["es"]) >= 0.0), dc["es"]
    i = int(np.where(us == 0.5)[0][0])
    assert dc["gs"][i] < 2.0 < dc["es"][i], (dc["gs"][i], dc["es"][i])


def test_criterion_05_negation_duality():
    # r_ES(J, Delta, U, phi) = r_GS(J, -Delta, -U, phi) to 1e-8 on a 5x5
    # grid; the ES path negates (J, Delta, U) internally while the reference
    # negates only (Delta, U), so agreement also exercises the J -> -J gauge
    worst = 0.0
    for delta in (0.5, 1.0, 1.5, 2.0, 2.5):
        for u in (-0.5, -0.25, 0.0, 0.25, 0.5):
            es = solve_state(ModelParams(L=21, J=1.0, Delta=delta, phi=0.3,
                                         U=u), "es")
            gs = solve_state(ModelParams(L=21, J=1.0, Delta=-delta, phi=0.3,
                                         U=-u), "gs")
            assert es.converged and gs.converged, (delta, u)
            worst = max(worst, abs(participation_ratio(es.state)
                                   - participation_ratio(gs.state)))
    assert worst < 1e-8, worst


def _open_chain_bessel(L, j0, t):
    # exact free evolution e^{-iHt} of a single site j0 on the open chain
    # with H = J (phi_{j+1} + phi_{j-1}), J = 1: the infinite-chain amplitude
    # (-i)^k J_k(2t) plus its images in the walls at sites -1 and L, which
    # repeat with period 2(L + 1) and alternate in sign; for 2t <= 20 the
    # images beyond |m| = 1 are below double precision
    n = np.arange(L)
    phi = np.zeros(L, dtype=complex)
    for m in (-1, 0, 1):
        for k, sign in ((n - j0 + 2 * m * (L + 1), 1.0),
                        (n + j0 + 2 + 2 * m * (L + 1), -1.0)):
            phase = np.array([1j ** int(-kk % 4) for kk in k])
            phi += sign * phase * jv(k, 2.0 * t)
    return phi


def test_criterion_06_bessel_oracle_full_window():
    # free lattice, L=61, center start: max_{j,t<=10} | |phi_j| - |phi_j^exact| |
    # against the open-chain Bessel (image-sum) solution, bound 1e-6
    L, j0 = 61, 30
    hop = np.diag(np.ones(L - 1), 1) + np.diag(np.ones(L - 1), -1)
    start = np.zeros(L)
    start[j0] = 1.0
    guard = float(np.max(np.abs(_open_chain_bessel(L, j0, 10.0)
                                - expm(-1j * hop * 10.0) @ start)))
    assert guard < 1e-10, f"image sum differs from expm by {guard:.3e} at t=10"

    p = ModelParams(L=L, J=1.0, Delta=0.0)
    traj = evolve(p, LatticeState.single_site(L, j0), 10.0, dt=1e-3,
                  snapshot_stride=100)
    worst, t_worst = 0.0, 0.0
    for t, st in zip(traj.times, traj.states):
        exact = np.abs(_open_chain_bessel(L, j0, t))
        err = float(np.max(np.abs(np.abs(st.amplitudes) - exact)))
        if err > worst:
            worst, t_worst = err, float(t)
    assert worst < 1e-6, (
        f"max deviation {worst:.3e} from the open-chain Bessel solution "
        f"at t={t_worst:.1f}")


def test_criterion_07_norm_and_energy_conservation():
    # drift bounds over t = 4: norm < 1e-9, energy < 1e-8 J, on the
    # {0,1,3} x {-0.8, 0, 0.8} (Delta, U) grid
    for delta in (0.0, 1.0, 3.0):
        for u in (-0.8, 0.0, 0.8):
            p = ModelParams(L=21, J=1.0, Delta=delta, U=u)
            traj = transport_experiment(p, 4.0)
            norm_drift = float(np.max(traj.norm_drift))
            energy_drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
            assert norm_drift < 1e-9, (delta, u, norm_drift)
            assert energy_drift < 1e-8, (delta, u, energy_drift)


def test_criterion_08_transport_ordering():
    # single-site quench: <d>(t=4) strictly decreasing across Delta/J in
    # {0.5, 1, 2, 3} at U=0; at Delta/J=1, t=2, interactions of either sign
    # reduce <d> relative to U=0
    d4 = [transport_experiment(ModelParams(L=21, J=1.0, Delta=d), 4.0).d[-1]
          for d in (0.5, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(d4, d4[1:])), d4

    d2 = {u: transport_experiment(ModelParams(L=21, J=1.0, Delta=1.0, U=u),
                                  2.0).d[-1]
          for u in (-0.8, 0.0, 0.8)}
    assert d2[-0.8] < d2[0.0], d2
    assert d2[0.8] < d2[0.0], d2


def test_criterion_09_gaa_exact_mobility_edge():
    # L=987, alpha=0.3, Delta/J=1: classification agrees with the analytic
    # edge for at least 98% of eigenstates
    cls = gaa_classify_spectrum(GaaParams(L=987, Delta=1.0, alpha=0.3))
    assert cls.misclassification <= 0.02, cls.misclassification


def test_criterion_10_ramp_non_adiabaticity():
    # v = 275 Hz/ms to J/h = 275 Hz: shallow lattice (Delta/J = 0.5) is
    # strongly non-adiabatic, deep lattice (Delta/J = 3) is faithful
    proto = EXPERIMENT_RAMP

    p_shallow = ModelParams(L=21, J=1.0, Delta=0.5)
    ramped, _ = ramp_prepare(p_shallow, proto, "gs")
    exact = solve_state(p_shallow, "gs")
    deficit = participation_ratio(exact.state) - participation_ratio(ramped)
    assert deficit >= 0.05, deficit

    p_deep = ModelParams(L=21, J=1.0, Delta=3.0)
    ramped_d, _ = ramp_prepare(p_deep, proto, "gs")
    exact_d = solve_state(p_deep, "gs")
    assert abs(participation_ratio(exact_d.state)
               - participation_ratio(ramped_d)) < 0.02


def test_criterion_11_fit_recovery_rate():
    # 100 noise seeds on the calibration curve (A=0.6, B=1/21, gamma=1.2,
    # Delta_c=1.8), sigma=0.01, 40 points: Delta_c within +/-0.15 at >= 95%
    deltas = np.linspace(0.2, 3.4, 40)
    clean = piecewise_model(deltas, 0.6, 1.0 / 21.0, 1.2, 1.8)
    hits = 0
    for seed in range(100):
        r = clean + np.random.default_rng(seed).normal(0.0, 0.01, deltas.size)
        fit = fit_transition(np.column_stack([deltas, r]))
        hits += abs(fit.delta_c - 1.8) <= 0.15
    assert hits >= 95, hits


def test_criterion_12_finite_size_ordering():
    # the L=144 boundaries at U/J in {-0.5, 0, 0.5} reproduce the L=21
    # transition ordering: GS boundary falls with U, ES boundary rises,
    # the two cross at U=0 near the non-interacting point
    def orderings(L, delta_max, delta_step):
        dc = {}
        for kind in ("gs", "es"):
            dc[kind] = {}
            for u in (-0.5, 0.0, 0.5):
                tr = transition_for_u(u, kind, _deltas(delta_max, delta_step),
                                      L=L)
                assert tr.found, (L, kind, u)
                dc[kind][u] = tr.delta_c
        flags = (
            dc["gs"][-0.5] >= dc["gs"][0.0] >= dc["gs"][0.5],
            dc["es"][-0.5] <= dc["es"][0.0] <= dc["es"][0.5],
            dc["gs"][0.5] < dc["es"][0.5],
            dc["gs"][-0.5] > dc["es"][-0.5],
        )
        return flags, dc

    small, dc21 = orderings(21, 8.0, 0.1)
    large, dc144 = orderings(144, 16.0, 0.5)
    assert all(small), dc21
    assert small == large, (dc21, dc144)
    assert dc144["gs"][0.0] == pytest.approx(2.0, abs=0.05)
    assert dc144["es"][0.0] == pytest.approx(2.0, abs=0.05)


def test_criterion_13_energy_gradient_check():
    # analytic gradient of E[phi] (via the Hamiltonian action) against
    # central finite differences, step 1e-6, on 10 random states
    rng = np.random.default_rng(2024)
    h = 1e-6
    for _ in range(10):
        L = 21
        p = ModelParams(L=L, J=1.0, Delta=float(rng.uniform(0, 3)),
                        phi=float(rng.uniform(0, 2 * np.pi)),
                        U=float(rng.uniform(-1, 1)))
        v = rng.normal(size=L) + 1j * rng.normal(size=L)
        v /= np.linalg.norm(v)
        hv = apply_hamiltonian(p, v)
        grad = np.concatenate([2.0 * hv.real, 2.0 * hv.imag])
        fd = np.empty(2 * L)
        for k in range(L):
            for part, off in ((1.0, 0), (1j, L)):
                vp, vm = v.copy(), v.copy()
                vp[k] += part * h
                vm[k] -= part * h
                fd[k + off] = (energy_functional(p, vp)
                               - energy_functional(p, vm)) / (2.0 * h)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
        assert rel < 1e-5, rel
