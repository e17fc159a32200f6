"""
Generalized Aubry-Andre (GAA) effective description.

The GAA chain replaces the AA on-site potential by

    V_j = Delta cos(2 pi beta j + phi) / (1 - alpha cos(2 pi beta j + phi)),

|alpha| < 1, which hosts an exact energy mobility edge at

    E_c = sgn(Delta) (2|J| - |Delta|) / alpha,

with states on the side alpha (E - E_c) > 0 localized. For the interacting
AA model, a weak mean-field interaction dresses the bare potential through
the density modulation: with density harmonics c_1, c_2 at the incommensurate
wavevector, matching the second-order expansion of the GAA form
(cos t + alpha cos^2 t + ...) gives the effective parameters

    Delta_eff = Delta - U c_1,      alpha_eff = -2 U c_2 / Delta_eff.

The matching formula is a commitment of this package, validated through its
sign and linearity properties rather than external numbers.

alpha* quantifies how the two transition points (ground and highest-excited
family) split with interaction:  alpha* = (Dc_gs - Dc_es) / (Ec_es - Ec_gs),
the slope connecting the two critical points in the (E, Delta) plane.
"""

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .eigensolve import SolverOptions, linear_spectrum, solve_state
from .model import (
    BETA_GOLDEN,
    LatticeState,
    ModelParams,
    density_fourier_coefficients,
    participation_of,
)
from .phasescan import transition_for_u

# classification thresholds, calibrated on Fibonacci sizes 144..987:
# a split of the sorted log-r sequence counts as a mobility edge only if both
# clusters carry at least MIN_CLUSTER_FRACTION of the states and the log-gap
# between them is at least MIN_LOG_GAP (natural log). Genuine edges cut off
# large clusters (>= 38% of states in the calibration spectra) with gaps
# > 1.1; single-phase spectra show at most a handful of band-edge outliers
# (~2% of states), which the 5% floor excludes.
MIN_CLUSTER_FRACTION = 0.05
MIN_LOG_GAP = 0.5


class AaLimitError(ValueError):
    """Raised where alpha = 0 leaves no finite mobility edge (AA limit)."""


@dataclass(frozen=True)
class GaaParams:
    L: int
    J: float = 1.0
    Delta: float = 0.0
    phi: float = 0.0
    alpha: float = 0.0
    beta: ClassVar[float] = BETA_GOLDEN     # not a field: no caller varies it

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("L must be >= 2")
        if not abs(self.alpha) < 1.0:
            raise ValueError(f"|alpha| must be < 1 for a nonsingular potential, "
                             f"got alpha={self.alpha}")


def gaa_potential(gp: GaaParams):
    """GAA on-site energies V_j, j = 0..L-1."""
    c = np.cos(2.0 * np.pi * gp.beta * np.arange(gp.L) + gp.phi)
    return gp.Delta * c / (1.0 - gp.alpha * c)


def gaa_mobility_edge(J, Delta, alpha) -> float:
    """Exact mobility edge E_c = sgn(Delta) (2|J| - |Delta|) / alpha."""
    if alpha == 0:
        raise AaLimitError("alpha = 0 is the AA limit: the transition is "
                           "energy-independent and there is no finite mobility edge")
    return float(np.sign(Delta) * (2.0 * abs(J) - abs(Delta)) / alpha)


# -------------------------
# Spectrum classification
# -------------------------

@dataclass
class GaaClassification:
    energies: np.ndarray
    r: np.ndarray
    predicted_localized: np.ndarray      # from the mobility-edge line
    observed_localized: np.ndarray       # from the r-distribution threshold
    agree: np.ndarray
    misclassification: float
    threshold: float | None              # None when the spectrum is single-phase
    mobility_edge: float | None          # None in the AA limit


def _r_threshold(r_sorted_log, L):
    """Midpoint of the largest admissible gap in the sorted log-r sequence.

    A gap is admissible when both resulting clusters hold at least
    MIN_CLUSTER_FRACTION of the states; this keeps stray band-edge states
    (present even in single-phase spectra) from being read as a mobility
    edge. Returns None when no admissible gap reaches MIN_LOG_GAP, i.e. the
    distribution is effectively unimodal.
    """
    kmin = max(1, int(np.ceil(MIN_CLUSTER_FRACTION * L)))
    if 2 * kmin > L:
        return None
    gaps = np.diff(r_sorted_log)
    adm = gaps[kmin - 1:L - kmin]
    if adm.size == 0 or np.max(adm) < MIN_LOG_GAP:
        return None
    i = int(np.argmax(adm)) + kmin - 1
    return float(np.exp(0.5 * (r_sorted_log[i] + r_sorted_log[i + 1])))


def gaa_classify_spectrum(gp: GaaParams) -> GaaClassification:
    """Diagonalize, label states localized/extended, compare with the edge.

    Observed labels come from the participation-ratio distribution: a
    bimodal split at the largest admissible log-gap, or — when the
    distribution is unimodal — the whole spectrum on one side, extended if
    the median r is above the critical-scaling reference 1/sqrt(L). The
    prediction puts states with alpha (E - E_c) > 0 on the localized side;
    in the AA limit (alpha = 0) the prediction is uniform by |Delta| vs 2|J|.
    """
    pot = gaa_potential(gp)
    w, v = linear_spectrum(gp.L, gp.J, pot)
    r = participation_of(np.abs(v.T) ** 2)      # eigenvectors are columns

    if gp.alpha == 0:
        edge = None
        predicted = np.full(gp.L, abs(gp.Delta) > 2.0 * abs(gp.J))
    else:
        edge = gaa_mobility_edge(gp.J, gp.Delta, gp.alpha)
        predicted = gp.alpha * (w - edge) > 0

    order_log = np.sort(np.log(r))
    thr = _r_threshold(order_log, gp.L)
    if thr is not None:
        # a genuine split must scale like one: the low cluster localized
        # (median r below 1/sqrt(L)), the high cluster not — otherwise the
        # gap is a band-edge artifact and the spectrum is single-phase
        ref = 1.0 / np.sqrt(gp.L)
        low, high = r[r < thr], r[r >= thr]
        if np.median(low) >= ref or np.median(high) < ref:
            thr = None
    if thr is None:
        all_localized = bool(np.median(r) < 1.0 / np.sqrt(gp.L))
        observed = np.full(gp.L, all_localized)
    else:
        observed = r < thr

    agree = observed == predicted
    return GaaClassification(
        energies=w, r=r, predicted_localized=predicted,
        observed_localized=observed, agree=agree,
        misclassification=float(np.mean(~agree)),
        threshold=thr, mobility_edge=edge)


# -------------------------
# Perturbative density matching
# -------------------------

def effective_gaa_from_density(state: LatticeState, params: ModelParams):
    """(Delta_eff, alpha_eff) from the density harmonics of a stationary state.

    Valid deep in the |U/Delta| << 1 regime (a warning is issued outside).
    The first density harmonic renormalizes the primary potential amplitude,
    Delta_eff = Delta - U c_1; the second harmonic is matched against the
    alpha cos^2 term of the expanded GAA potential, alpha_eff =
    -2 U c_2 / Delta_eff.
    """
    if params.Delta == 0 or abs(params.U) > 0.5 * abs(params.Delta):
        warnings.warn("effective GAA matching is perturbative in U/Delta; "
                      f"U={params.U}, Delta={params.Delta} is outside the "
                      "trusted regime", stacklevel=2)
    c = density_fourier_coefficients(state, beta=params.beta)
    delta_eff = params.Delta - params.U * c[1]
    if abs(delta_eff) < 1e-12:
        raise ValueError("Delta_eff ~ 0: second-harmonic matching undefined")
    alpha_eff = -2.0 * params.U * c[2] / delta_eff
    return float(delta_eff), float(alpha_eff)


# -------------------------
# alpha* extraction
# -------------------------

@dataclass
class AlphaStarResult:
    U: float
    delta_c_gs: float
    delta_c_es: float
    e_c_gs: float
    e_c_es: float
    alpha_star: float
    energy_definition: str         # "mu" | "E"


def extract_alpha_star(u, L=21, phi=0.0, energy_definition="mu",
                       delta_max=8.0, delta_step=0.1,
                       opts=SolverOptions()) -> AlphaStarResult:
    """alpha* = (Dc_gs - Dc_es) / (Ec_es - Ec_gs) at interaction U.

    Transition points come from the phase-scan bisection (1e-3 in Delta/J);
    the state energy at each critical point is the chemical potential mu by
    default, or the energy functional E with energy_definition="E". Raises
    if either transition is not bracketed in the scan window.
    """
    if energy_definition not in ("mu", "E"):
        raise ValueError("energy_definition must be 'mu' or 'E'")
    points = {}
    for kind in ("gs", "es"):
        tr = transition_for_u(u, kind, L=L, delta_max=delta_max,
                              delta_step=delta_step, phi=phi, opts=opts)
        if not tr.found:
            raise RuntimeError(f"transition not bracketed for kind={kind}, "
                               f"U={u}: {tr.message}")
        params = ModelParams(L=L, J=1.0, Delta=tr.delta_c, phi=phi, U=u)
        sol = solve_state(params, kind, opts)
        e_val = sol.mu if energy_definition == "mu" else sol.energy
        points[kind] = (tr.delta_c, e_val)

    (dg, eg), (de, ee) = points["gs"], points["es"]
    alpha_star = 0.0 if dg == de else (dg - de) / (ee - eg)
    return AlphaStarResult(U=float(u), delta_c_gs=dg, delta_c_es=de,
                           e_c_gs=eg, e_c_es=ee, alpha_star=float(alpha_star),
                           energy_definition=energy_definition)
