"""Generalized-model potential, mobility edge, and effective parameters."""

import numpy as np
import pytest

from nlaa import (
    AaLimitError,
    GaaParams,
    ModelParams,
    effective_gaa_from_density,
    extract_alpha_star,
    gaa_classify_spectrum,
    gaa_mobility_edge,
    gaa_potential,
    solve_state,
)


def test_gaa_potential_reduces_to_cosine_at_alpha_zero():
    gp = GaaParams(L=13, Delta=1.3, alpha=0.0, phi=0.4)
    theta = 2 * np.pi * gp.beta * np.arange(13) + 0.4
    assert np.allclose(gaa_potential(gp), 1.3 * np.cos(theta), atol=1e-14)


def test_gaa_params_validation():
    with pytest.raises(ValueError):
        GaaParams(L=13, Delta=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        GaaParams(L=13, Delta=1.0, alpha=-1.5)


def test_mobility_edge_line():
    assert gaa_mobility_edge(1.0, 1.0, 0.3) == pytest.approx(1.0 / 0.3)
    assert gaa_mobility_edge(1.0, -1.0, 0.3) == pytest.approx(-1.0 / 0.3)
    assert gaa_mobility_edge(1.0, 3.0, 0.5) == pytest.approx(-2.0)
    with pytest.raises(AaLimitError):
        gaa_mobility_edge(1.0, 1.0, 0.0)


def test_all_extended_spectrum_matches_line():
    # edge far above the band: no state is localized on either side of the
    # comparison
    gp = GaaParams(L=233, Delta=1.0, alpha=0.3)
    cls = gaa_classify_spectrum(gp)
    assert cls.mobility_edge > np.max(cls.energies)
    assert not cls.predicted_localized.any()
    assert not cls.observed_localized.any()
    assert cls.misclassification == 0.0
    assert cls.threshold is None              # unimodal r distribution


def test_all_localized_spectrum_matches_line():
    gp = GaaParams(L=233, Delta=3.5, alpha=0.3)
    cls = gaa_classify_spectrum(gp)
    assert cls.mobility_edge < np.min(cls.energies)
    assert cls.predicted_localized.all()
    assert cls.observed_localized.all()
    assert cls.misclassification == 0.0


def test_edge_cutting_spectrum_classification():
    # the edge crosses the band: both families present, high agreement
    gp = GaaParams(L=987, Delta=1.5, alpha=0.5)
    cls = gaa_classify_spectrum(gp)
    assert np.min(cls.energies) < cls.mobility_edge < np.max(cls.energies)
    assert cls.threshold is not None
    assert 0 < int(cls.observed_localized.sum()) < 987
    assert cls.misclassification <= 0.02
    # localized side is the high-energy side for Delta, alpha > 0
    loc_e = cls.energies[cls.observed_localized]
    ext_e = cls.energies[~cls.observed_localized]
    assert np.min(loc_e) > np.max(ext_e) - 0.5


def test_aa_limit_classification_without_edge():
    ext = gaa_classify_spectrum(GaaParams(L=144, Delta=1.0, alpha=0.0))
    assert ext.mobility_edge is None
    assert not ext.predicted_localized.any()
    assert ext.misclassification == 0.0
    loc = gaa_classify_spectrum(GaaParams(L=144, Delta=3.0, alpha=0.0))
    assert loc.predicted_localized.all()
    assert loc.observed_localized.all()


# -------------------------
# Effective parameters from a self-consistent density
# -------------------------

def test_effective_params_at_u_zero():
    p = ModelParams(L=21, J=1.0, Delta=1.0)
    sol = solve_state(p, "gs")
    delta_eff, alpha_eff = effective_gaa_from_density(sol.state, p)
    assert alpha_eff == 0.0
    assert delta_eff == pytest.approx(1.0, rel=1e-12)


def test_effective_params_signs_for_focusing():
    # c1 < 0 so U > 0 deepens the effective modulation; c2 > 0 makes
    # alpha_eff negative, i.e. the edge sits above the GS band
    p = ModelParams(L=21, J=1.0, Delta=1.0, U=0.5)
    seed = solve_state(ModelParams(L=21, J=1.0, Delta=1.0), "gs")
    delta_eff, alpha_eff = effective_gaa_from_density(seed.state, p)
    assert delta_eff == pytest.approx(1.0 + 0.5 * 0.02800083, abs=2e-6)
    assert alpha_eff == pytest.approx(-2 * 0.5 * 0.0109289 / delta_eff,
                                      abs=2e-6)


def test_effective_alpha_flips_with_interaction_sign():
    seed = solve_state(ModelParams(L=21, J=1.0, Delta=1.5), "gs")
    _, a_pos = effective_gaa_from_density(
        seed.state, ModelParams(L=21, J=1.0, Delta=1.5, U=0.2))
    _, a_neg = effective_gaa_from_density(
        seed.state, ModelParams(L=21, J=1.0, Delta=1.5, U=-0.2))
    assert a_pos < 0 < a_neg                  # sign(alpha_eff) = -sign(U)
    # antisymmetry is only leading-order: Delta_eff itself shifts with the
    # sign of U, so allow a few percent of asymmetry
    assert a_pos == pytest.approx(-a_neg, rel=5e-2)


def test_effective_params_warns_outside_perturbative_window():
    p = ModelParams(L=21, J=1.0, Delta=1.0, U=0.8)
    seed = solve_state(ModelParams(L=21, J=1.0, Delta=1.0), "gs")
    with pytest.warns(UserWarning):
        effective_gaa_from_density(seed.state, p)


# -------------------------
# alpha* extraction
# -------------------------

def test_extract_alpha_star_at_quarter_u():
    res = extract_alpha_star(0.25, np.arange(0.0, 8.05, 0.1))
    assert res.delta_c_gs == pytest.approx(1.5184, abs=0.01)
    assert res.delta_c_es == pytest.approx(2.5082, abs=0.01)
    # the paper-scale slope is about -0.81 U/J, so alpha*(0.25) ~ -0.2
    assert -0.30 < res.alpha_star < -0.12
    assert res.energy_definition == "mu"


def test_extract_alpha_star_unbracketed_window_raises():
    with pytest.raises(RuntimeError):
        extract_alpha_star(0.25, np.arange(0.0, 0.55, 0.1))
