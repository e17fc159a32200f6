"""
Core types and observables for the nonlinear Aubry-Andre (AA) lattice model.

The model lives on an open chain of L sites with the discrete
Gross-Pitaevskii-type equation of motion

    i hbar d(phi_j)/dt = J (phi_{j+1} + phi_{j-1}) + eps_j phi_j - U |phi_j|^2 phi_j,

where eps_j = Delta * cos(2 pi beta j + phi) is the quasiperiodic on-site
potential and beta is the inverse golden ratio (sqrt(5)-1)/2.

The Hamiltonian's action (apply_stencil), the energy E[phi] (energy_of) and
the participation ratio r (participation_of) are written once, here, on
(..., L) arrays, one chain per row, each row computed bit for bit as alone;
the other modules and the public observables below all call them.

Conventions used throughout the package:
- internal units: hbar = 1, energies in units of J, time in hbar/J;
  SI conversion happens only at the CLI boundary, in nlaa.cli's
  _internal_units (bragg_detunings below is an SI design helper).
- sites are indexed j = 0..L-1 inside the cosine; any centered labeling
  is absorbed by the disorder phase phi, and widths are measured from the
  middle site (L-1)//2, the `center` of a state.
- open (hard-wall) boundaries: phi_{-1} = phi_L = 0.
"""

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# inverse golden ratio, the incommensurate beta of the model
BETA_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# interaction scale beyond which the mean-field state tends to self-trap;
# parameter sets past this are accepted but flagged
SELF_TRAPPING_RATIO = 1.5

# SI constants (CODATA-sized, for the CLI's boundary conversion and
# bragg_detunings only)
HBAR_SI = 1.054571817e-34      # J s
H_SI = 6.62607015e-34          # J s
BOHR_RADIUS_SI = 5.29177210903e-11   # m
CS_MASS_SI = 2.2069e-25        # kg, caesium-133

# the state kinds: the ground state and the highest excited state
KINDS = ("gs", "es")

# paper-style site index of internal site 0 in the 21-site Bragg convention
# (sites j = -10..10)
BRAGG_SITE_OFFSET = -10


# -------------------------
# Parameter containers
# -------------------------

@dataclass(frozen=True)
class ModelParams:
    """Full parameterization of the lattice model (internal units)."""
    L: int
    J: float = 1.0
    Delta: float = 0.0
    phi: float = 0.0
    U: float = 0.0
    beta: ClassVar[float] = BETA_GOLDEN     # not a field: no caller varies it

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L!r}")
        for name in ("J", "Delta", "phi", "U"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.self_trapping_guard:
            warnings.warn(
                f"|U/J| = {abs(self.U / self.J):.3g} exceeds {SELF_TRAPPING_RATIO}; "
                "the weak-interaction regime is left and self-trapping may occur",
                stacklevel=2,
            )

    @property
    def self_trapping_guard(self) -> bool:
        """True when |U/J| is beyond the weak-interaction regime."""
        return self.J != 0.0 and abs(self.U / self.J) > SELF_TRAPPING_RATIO

    def negated(self) -> "ModelParams":
        """Params with (J, Delta, U) -> (-J, -Delta, -U); same phi.

        The highest excited state of the model is the ground state of the
        negated model, which is how the excited-state solver is built.
        """
        return ModelParams(L=self.L, J=-self.J, Delta=-self.Delta,
                           phi=self.phi, U=-self.U)

    def for_kind(self, kind) -> "ModelParams":
        """The model whose ground state is this model's `kind` state: itself
        for 'gs', negated() for 'es'. The one check of a kind."""
        if kind not in KINDS:
            raise ValueError(f"kind must be 'gs' or 'es', got {kind!r}")
        return self if kind == "gs" else self.negated()

    def to_dict(self) -> dict:
        return {"L": self.L, "J": self.J, "Delta": self.Delta,
                "beta": self.beta, "phi": self.phi, "U": self.U,
                "units": "internal (hbar = J = 1)"}


class LatticeState:
    """Normalized complex amplitude vector phi_j.

    The constructor renormalizes; a zero vector is rejected. `center`, the
    reference site for width measurements, is the middle site (L-1)//2.
    """

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).copy()
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be a 1-d vector of length >= 2")
        norm = np.linalg.norm(amps)
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("cannot normalize a zero or non-finite state")
        self.amplitudes = amps / norm

    @property
    def L(self) -> int:
        return self.amplitudes.size

    @property
    def center(self) -> int:
        return (self.L - 1) // 2

    @property
    def density(self) -> np.ndarray:
        """Site densities n_j = |phi_j|^2 (nonnegative, sums to 1)."""
        return np.abs(self.amplitudes) ** 2

    @classmethod
    def single_site(cls, L, j):
        """All population on site j."""
        amps = np.zeros(L, dtype=complex)
        amps[j] = 1.0
        return cls(amps)


# -------------------------
# Potential and Hamiltonian action
# -------------------------

def quasiperiodic_potential(params: ModelParams):
    """On-site energies eps_j = Delta cos(2 pi beta j + phi), j = 0..L-1."""
    return params.Delta * np.cos(2.0 * np.pi * params.beta * np.arange(params.L)
                                 + params.phi)


def apply_stencil(J, diag, v):
    """diag_j v_j + J (v_{j+1} + v_{j-1}) per row, hard walls. Callers pass
    their own diagonal (eps - U |v|^2); J is a scalar or a (B, 1) column."""
    out = diag * v
    jv = J * v             # one product per site, shared by both neighbours
    out[..., :-1] += jv[..., 1:]
    out[..., 1:] += jv[..., :-1]
    return out


_sum = np.add.reduce     # np.sum without its dispatch wrapper, bit for bit


def energy_of(J, eps, U, v):
    """E[v] of energy_functional per row; J and U are scalars or (B,) arrays.
    On a real v, .conj() and .real return v itself (no extra arithmetic)."""
    n = (v.conj() * v).real
    hop = (v[..., :-1].conj() * v[..., 1:]).real
    return (2.0 * J * _sum(hop, axis=-1) + _sum(eps * n, axis=-1)
            - 0.5 * U * _sum(n * n, axis=-1))


def participation_of(n):
    """r = (1/L) / sum_j n_j^2 per row of normalized densities n."""
    return 1.0 / (n.shape[-1] * _sum(n ** 2, axis=-1))


def apply_hamiltonian(params: ModelParams, state):
    """Action of the (state-dependent) Hamiltonian on the amplitudes.

    Component j is J (phi_{j+1} + phi_{j-1}) + eps_j phi_j - U |phi_j|^2 phi_j
    with hard-wall boundaries. Accepts a LatticeState or a plain vector and
    returns a vector of the same length.
    """
    v = state.amplitudes if isinstance(state, LatticeState) else np.asarray(state)
    if v.shape != (params.L,):
        raise ValueError(f"state length {v.shape} does not match L={params.L}")
    diag = quasiperiodic_potential(params) - params.U * np.abs(v) ** 2
    return apply_stencil(params.J, diag, v)


# -------------------------
# Scalar observables
# -------------------------

def participation_ratio(state):
    """r = (1/L) / sum_j n_j^2, between 1/L (one site) and 1 (uniform): a
    float for a LatticeState or a vector, an array of r per row for an
    (..., L) array of amplitudes, each row's bit for bit as alone."""
    n = state.density if isinstance(state, LatticeState) else np.abs(np.asarray(state)) ** 2
    total = _sum(n, axis=-1, keepdims=True)
    if not 0.0 < total.min() < np.inf:         # False for NaN as well
        raise ValueError("zero-norm state has no participation ratio")
    r = participation_of(n / total)
    return float(r) if n.ndim == 1 else r


def momentum_width(state):
    """Mean displacement <d> = sum_j |j - center| n_j from the center site
    (L-1)//2: a float for a LatticeState, an array of <d> per row for an
    (..., L) array of normalized amplitudes."""
    n = state.density if isinstance(state, LatticeState) else np.abs(np.asarray(state)) ** 2
    L = n.shape[-1]
    d = _sum(np.abs(np.arange(L) - (L - 1) // 2) * n, axis=-1)
    return float(d) if n.ndim == 1 else d


def energy_functional(params: ModelParams, state) -> float:
    """E[phi] = sum_j [ J(phi_j* phi_{j+1} + c.c.) + eps_j n_j - (U/2) n_j^2 ].

    The equation of motion is the variational derivative of this functional,
    so it is the conserved energy of the dynamics.
    """
    v = state.amplitudes if isinstance(state, LatticeState) else np.asarray(state)
    return float(energy_of(params.J, quasiperiodic_potential(params), params.U, v))


def chemical_potential(params: ModelParams, state) -> float:
    """mu = <phi| H[phi] phi>, the nonlinear eigenvalue of a stationary state.

    Computed directly as the expectation value of the state-dependent
    Hamiltonian; the identity mu = E[phi] - (U/2) sum_j n_j^2 holds to
    rounding for any normalized state.
    """
    v = state.amplitudes if isinstance(state, LatticeState) else np.asarray(state)
    hv = apply_hamiltonian(params, v)
    return float(np.real(np.vdot(v, hv)))


def density_fourier_coefficients(state):
    """Cosine-projection coefficients of the density at harmonics of beta.

    Returns the array [c_0, c_1, c_2] with the convention
        c_0 = (1/L) sum_j n_j          (the mean density),
        c_m = (2/L) sum_j n_j cos(2 pi beta m j)   for m = 1, 2.
    The 2/L normalization makes c_m the amplitude of a pure
    n_j = c_m cos(2 pi beta m j) modulation up to finite-size leakage.
    """
    n = state.density if isinstance(state, LatticeState) else np.abs(np.asarray(state)) ** 2
    L = n.size
    j = np.arange(L)
    coeffs = [n.sum() / L]
    for m in (1, 2):
        coeffs.append(2.0 / L * np.sum(n * np.cos(2.0 * np.pi * BETA_GOLDEN * m * j)))
    return np.array(coeffs)


# -------------------------
# Bragg-lattice design helper
# -------------------------

@dataclass(frozen=True)
class BraggSchedule:
    """Two-photon detunings and phases realizing the model on a momentum ladder.

    detunings[i] is the angular frequency for the bond between paper-style
    sites j and j+1 with j = i + BRAGG_SITE_OFFSET (the 21-site convention
    j = -10..9); phases are 0 for J > 0 and pi to realize a negative hopping.
    """
    detunings: np.ndarray      # rad/s, length L-1
    phases: np.ndarray         # radians, length L-1
    recoil: float              # E_R in Joules
    wavenumber: float          # k in 1/m (from E_R = hbar^2 k^2 / 2m)


def bragg_detunings(params: ModelParams, recoil_joule: float,
                    j_energy_joule: float = 0.0) -> BraggSchedule:
    """Design detunings hbar*dw_j = 4(2j+1) E_R - (eps_{j+1} - eps_j).

    The j in the design formula is the centered site label j = -10..9, so a
    21-site chain yields 20 detunings. eps is the on-site potential in SI,
    obtained by scaling the internal eps with `j_energy_joule` (the SI value
    of the energy unit J); with Delta = 0 the schedule is interaction-free
    and j_energy_joule is irrelevant.
    """
    if params.L != 21:
        raise ValueError(f"the 21-site schedule convention requires L=21, got L={params.L}")
    if recoil_joule <= 0:
        raise ValueError("recoil energy must be positive")
    eps_int = quasiperiodic_potential(params)
    eps_si = eps_int * j_energy_joule
    jj = np.arange(params.L - 1) + BRAGG_SITE_OFFSET    # bond labels -10..9
    hbar_domega = 4.0 * (2 * jj + 1) * recoil_joule - np.diff(eps_si)
    detunings = hbar_domega / HBAR_SI
    phase = 0.0 if params.J >= 0 else np.pi
    phases = np.full(params.L - 1, phase)
    k = np.sqrt(2.0 * CS_MASS_SI * recoil_joule) / HBAR_SI
    return BraggSchedule(detunings=detunings, phases=phases,
                         recoil=recoil_joule, wavenumber=k)
