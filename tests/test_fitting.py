"""Tests for the piecewise transition fit, synthetic measurements, and the
bootstrap uncertainty estimate."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from nlaa import fitting
from nlaa.dynamics import RampProtocol, ramp_prepare
from nlaa.fitting import (
    BootstrapResult,
    FitResult,
    UnidentifiableFitError,
    _as_columns,
    bootstrap_delta_c,
    fit_transition,
    piecewise_model,
    synthesize_measurement,
)
from nlaa.model import ModelParams, participation_ratio

TRUE = dict(A=0.6, B=1.0 / 21.0, gamma=1.2, delta_c=1.8)
# grid chosen so the true delta_c = 1.8 is exactly an interval midpoint
DELTAS = np.linspace(0.2, 3.4, 40)


def _clean_curve(**kw):
    p = dict(TRUE)
    p.update(kw)
    return piecewise_model(DELTAS, **p)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# -------------------------
# least_squares against scipy's least_squares(method="lm")
# -------------------------

@given(n=st.integers(4, 40), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1),
       B=st.floats(0.0, 0.5),
       x0=st.tuples(*[st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)] * 2))
def test_least_squares_equals_scipy_lm(n, weighted, seed, B, x0):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(0.05, 5.0, n))
    r = rng.uniform(0.01, 1.0, n)
    w = rng.uniform(0.2, 20.0, n) if weighted else np.ones(n)

    def fun(p):
        return w * (p[0] * d ** (-p[1]) + B - r)

    with np.errstate(all="ignore"):
        try:
            want = scipy.optimize.least_squares(fun, x0, method="lm", max_nfev=2000)
        except ValueError as exc:    # residuals not finite at x0
            with pytest.raises(ValueError, match=str(exc)):
                fitting.least_squares(fun, x0)
            return
        got = fitting.least_squares(fun, x0)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.nfev == want.nfev


def _scipy_fit_transition(data):
    """fit_transition's candidate loop on scipy's least_squares(method="lm"):
    the reference the lean MINPACK path must reproduce bit for bit."""
    delta, r, w = _as_columns(data)
    n = delta.size
    if n < fitting.MIN_LEFT_POINTS + 1:
        raise UnidentifiableFitError("too few points")
    best = None
    for dc in 0.5 * (delta[:-1] + delta[1:]):
        left = delta <= dc
        n_left = int(left.sum())
        if n_left < fitting.MIN_LEFT_POINTS or n_left == n:
            continue
        wl, wr = w[left], w[~left]
        B = float(np.sum(wr ** 2 * r[~left]) / np.sum(wr ** 2))
        if B < 0:
            continue
        y = r[left] - B
        if np.any(y <= 0):
            continue
        coef = np.polyfit(np.log(delta[left]), np.log(y), 1)
        seed = (float(np.exp(coef[1])), float(-coef[0]))
        dl = delta[left]

        def res_left(p):
            return wl * (p[0] * dl ** (-p[1]) + B - r[left])

        sol = scipy.optimize.least_squares(res_left, seed, method="lm", max_nfev=2000)
        A, gamma = (float(sol.x[0]), float(sol.x[1]))
        rss = float(np.sum(res_left((A, gamma)) ** 2)
                    + np.sum((wr * (r[~left] - B)) ** 2))
        if best is None or rss < best.rss:
            best = FitResult(A=A, B=B, gamma=gamma, delta_c=float(dc),
                             rss=rss, n_points=n)
    if best is None:
        raise UnidentifiableFitError("no usable candidate")
    return best


def _scipy_bootstrap(data, n_resamples, seed):
    """bootstrap_delta_c's resampling loop around _scipy_fit_transition."""
    delta, r, w = _as_columns(data)
    fitted = _scipy_fit_transition(data).curve(delta)
    resid = r - fitted
    samples, failures = [], 0
    for ss in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.default_rng(ss)
        r_star = fitted + rng.choice(resid, size=resid.size, replace=True)
        rows = np.column_stack([delta, r_star]) if np.all(w == 1.0) \
            else np.column_stack([delta, r_star, 1.0 / w])
        try:
            samples.append(_scipy_fit_transition(rows).delta_c)
        except UnidentifiableFitError:
            failures += 1
    samples = np.array(samples)
    valid = failures <= 0.2 * n_resamples
    stderr = float(np.std(samples, ddof=1)) if valid and samples.size > 1 else float("nan")
    return BootstrapResult(stderr=stderr, n_resamples=n_resamples,
                           n_failures=failures, valid=valid, samples=samples)


def _fit_fields(fit):
    return _bits([fit.A, fit.B, fit.gamma, fit.delta_c, fit.rss]), fit.n_points


@settings(max_examples=4)
@given(n=st.integers(6, 16), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1),
       A=st.floats(0.02, 1.0), gamma=st.floats(0.3, 2.5), split=st.floats(0.3, 0.8),
       noise=st.sampled_from([0.0, 0.003, 0.03]))
def test_fit_and_bootstrap_equal_scipy_loop(n, weighted, seed, A, gamma, split, noise):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(0.2, 4.0, n))
    dc = float(np.quantile(d, split))
    sigma = rng.uniform(0.005, 0.05, n)
    r = piecewise_model(d, A, 1.0 / 21.0, gamma, dc) + noise * rng.standard_normal(n)
    data = np.column_stack([d, r, sigma]) if weighted else np.column_stack([d, r])
    with np.errstate(all="ignore"):
        try:
            want = _scipy_fit_transition(data)
        except UnidentifiableFitError:
            with pytest.raises(UnidentifiableFitError):
                fit_transition(data)
            return
        assert _fit_fields(fit_transition(data)) == _fit_fields(want)
        got_bs = bootstrap_delta_c(data, n_resamples=100, seed=seed % 1000)
        want_bs = _scipy_bootstrap(data, 100, seed % 1000)
    assert _bits(got_bs.stderr) == _bits(want_bs.stderr)
    assert (got_bs.n_resamples, got_bs.n_failures, got_bs.valid) == \
        (want_bs.n_resamples, want_bs.n_failures, want_bs.valid)
    assert got_bs.samples.tobytes() == want_bs.samples.tobytes()


# -------------------------
# Piecewise model
# -------------------------

def test_theta_boundary_point_sits_on_power_law_branch():
    # Theta(0) := 1, so delta == delta_c evaluates on the left branch
    at = piecewise_model(1.8, 0.6, 0.05, 1.2, 1.8)
    assert at == pytest.approx(0.6 * 1.8 ** (-1.2) + 0.05, rel=1e-14)
    above = piecewise_model(1.8 + 1e-12, 0.6, 0.05, 1.2, 1.8)
    assert above == 0.05


def test_right_branch_is_flat():
    vals = piecewise_model(np.array([2.0, 2.7, 3.4]), 0.6, 0.05, 1.2, 1.8)
    assert np.all(vals == 0.05)


# -------------------------
# fit_transition
# -------------------------

def test_exact_recovery_from_noiseless_data():
    fit = fit_transition(np.column_stack([DELTAS, _clean_curve()]))
    assert fit.A == pytest.approx(TRUE["A"], abs=1e-6)
    assert fit.B == pytest.approx(TRUE["B"], abs=1e-6)
    assert fit.gamma == pytest.approx(TRUE["gamma"], abs=1e-6)
    assert fit.delta_c == pytest.approx(TRUE["delta_c"], abs=1e-6)
    assert fit.rss < 1e-20
    assert fit.n_points == DELTAS.size


def test_noisy_recovery_within_tolerance():
    rng = np.random.default_rng(7)
    r = _clean_curve() + rng.normal(0.0, 0.01, size=DELTAS.size)
    fit = fit_transition(np.column_stack([DELTAS, r]))
    assert fit.delta_c == pytest.approx(TRUE["delta_c"], abs=0.15)
    assert fit.gamma > 0


def test_fit_rss_not_worse_than_generating_parameters():
    # the true delta_c is an exact grid-midpoint candidate, so the global
    # search can never do worse than the generating parameters
    rng = np.random.default_rng(7)
    r = _clean_curve() + rng.normal(0.0, 0.01, size=DELTAS.size)
    fit = fit_transition(np.column_stack([DELTAS, r]))
    truth_rss = float(np.sum((r - _clean_curve()) ** 2))
    assert fit.rss <= truth_rss


def test_fit_is_deterministic():
    rng = np.random.default_rng(21)
    r = _clean_curve() + rng.normal(0.0, 0.02, size=DELTAS.size)
    data = np.column_stack([DELTAS, r])
    a, b = fit_transition(data), fit_transition(data)
    assert (a.A, a.B, a.gamma, a.delta_c, a.rss) == \
        (b.A, b.B, b.gamma, b.delta_c, b.rss)


def test_fit_accepts_unsorted_input():
    data = np.column_stack([DELTAS, _clean_curve()])
    rng = np.random.default_rng(3)
    fit = fit_transition(data[rng.permutation(DELTAS.size)])
    assert fit.delta_c == pytest.approx(TRUE["delta_c"], abs=1e-6)


def test_uniform_sigma_column_matches_unweighted_fit():
    rng = np.random.default_rng(7)
    r = _clean_curve() + rng.normal(0.0, 0.01, size=DELTAS.size)
    plain = fit_transition(np.column_stack([DELTAS, r]))
    sig = np.full(DELTAS.size, 0.01)
    weighted = fit_transition(np.column_stack([DELTAS, r, sig]))
    assert weighted.delta_c == plain.delta_c
    assert weighted.gamma == pytest.approx(plain.gamma, rel=1e-9)


def test_constant_data_is_unidentifiable():
    d = np.linspace(0.5, 3.0, 10)
    with pytest.raises(UnidentifiableFitError):
        fit_transition(np.column_stack([d, np.full(10, 0.3)]))


def test_too_few_points_is_unidentifiable():
    d = np.array([0.5, 1.0, 1.5])
    with pytest.raises(UnidentifiableFitError):
        fit_transition(np.column_stack([d, 1.0 / d]))


def test_input_validation():
    with pytest.raises(ValueError):
        fit_transition(np.zeros((5, 4)))           # too many columns
    with pytest.raises(ValueError):
        fit_transition(np.column_stack([[-1.0, 1.0, 2.0, 3.0],
                                        [1.0, 0.5, 0.3, 0.2]]))
    with pytest.raises(ValueError):
        fit_transition(np.column_stack([[1.0, 2.0, 3.0, 4.0],
                                        [1.0, 0.5, 0.3, 0.2],
                                        [0.1, 0.0, 0.1, 0.1]]))  # sigma <= 0


@pytest.mark.parametrize("column, name", [(0, "delta"), (1, "r"), (2, "sigma")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected_at_ingress(column, name, bad):
    data = np.column_stack([DELTAS, _clean_curve(), np.full(DELTAS.size, 0.01)])
    data[6, column] = bad
    with pytest.raises(ValueError, match=rf"^{name} in data row 7 is not finite"):
        fit_transition(data)
    with pytest.raises(ValueError, match=rf"^{name} in data row 7"):
        bootstrap_delta_c(data, n_resamples=100)
    if column < 2:
        with pytest.raises(ValueError, match=rf"^{name} in data row 7"):
            fit_transition(data[:, :2])


# -------------------------
# synthesize_measurement
# -------------------------

def test_synthesize_matches_direct_ramp_preparation():
    proto = RampProtocol.from_si()
    out = synthesize_measurement(0.3, [1.0, 2.5], L=13)
    noisy = synthesize_measurement(0.3, [1.0, 2.5], L=13, noise_sigma=0.01,
                                   seed=5)
    rng = np.random.default_rng(5)          # noise is drawn in Delta order
    assert out.shape == (2, 2)
    for k, delta in enumerate((1.0, 2.5)):
        params = ModelParams(L=13, J=1.0, Delta=delta, phi=0.0, U=0.3)
        state, _ = ramp_prepare(params, proto, dt=1e-3)
        assert out[k, 0] == delta
        assert out[k, 1] == pytest.approx(participation_ratio(state),
                                          rel=1e-12)
        assert noisy[k, 1] == out[k, 1] + rng.normal(0.0, 0.01)


def test_synthesize_es_kind_uses_excited_target():
    proto = RampProtocol.from_si()
    excited = RampProtocol(duration=proto.duration, hold=proto.hold,
                           target="highest-excited")
    out = synthesize_measurement(0.3, [1.5], L=13, kind="es")
    params = ModelParams(L=13, J=1.0, Delta=1.5, phi=0.0, U=0.3)
    state, _ = ramp_prepare(params, excited, dt=1e-3)
    assert out[0, 1] == pytest.approx(participation_ratio(state), rel=1e-12)


def test_population_floor_raises_r_of_localized_state():
    bare = synthesize_measurement(0.0, [3.5], L=21)
    floored = synthesize_measurement(0.0, [3.5], L=21, floor=1e-3)
    assert bare[0, 1] < 0.3          # deep localized
    assert floored[0, 1] > bare[0, 1]


def test_synthesize_noise_is_seed_reproducible():
    a = synthesize_measurement(0.0, [1.0, 2.0], L=13, noise_sigma=0.01,
                               seed=42)
    b = synthesize_measurement(0.0, [1.0, 2.0], L=13, noise_sigma=0.01,
                               seed=42)
    c = synthesize_measurement(0.0, [1.0, 2.0], L=13, noise_sigma=0.01,
                               seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -------------------------
# bootstrap_delta_c
# -------------------------

def test_bootstrap_rejects_too_few_resamples():
    data = np.column_stack([DELTAS, _clean_curve()])
    with pytest.raises(ValueError):
        bootstrap_delta_c(data, n_resamples=99)


def test_bootstrap_noiseless_data_gives_null_stderr():
    d = np.linspace(0.2, 3.4, 24)
    r = piecewise_model(d, **TRUE)
    bs = bootstrap_delta_c(np.column_stack([d, r]), n_resamples=100, seed=5)
    assert bs.valid
    assert bs.n_failures == 0
    assert bs.stderr < 1e-12


def test_bootstrap_stderr_positive_and_shrinks_with_n():
    # small power-law amplitude keeps the corner genuinely uncertain under
    # noise, so the resampled delta_c actually spreads
    gen = dict(A=0.05, B=1.0 / 21.0, gamma=1.2, delta_c=1.8)

    r40 = piecewise_model(DELTAS, **gen) \
        + np.random.default_rng(11).normal(0.0, 0.01, DELTAS.size)
    bs40 = bootstrap_delta_c(np.column_stack([DELTAS, r40]),
                             n_resamples=100, seed=3)
    assert bs40.valid
    assert 0.0 < bs40.stderr < 0.3
    assert bs40.samples.size == 100 - bs40.n_failures

    d160 = np.linspace(0.2, 3.4, 160)
    r160 = piecewise_model(d160, **gen) \
        + np.random.default_rng(12).normal(0.0, 0.01, d160.size)
    bs160 = bootstrap_delta_c(np.column_stack([d160, r160]),
                              n_resamples=100, seed=3)
    assert bs160.valid
    # 4x the points should shrink the corner uncertainty roughly like
    # 1/sqrt(n); allow a wide band around the ideal factor 2
    assert 1.3 < bs40.stderr / bs160.stderr < 4.0
