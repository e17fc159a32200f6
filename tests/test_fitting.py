"""Tests for the piecewise transition fit, synthetic measurements, and the
bootstrap uncertainty estimate."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from nlaa import dynamics, fitting
from nlaa.cli import main
from nlaa.dynamics import EXPERIMENT_RAMP, ramp_prepare
from nlaa.fitting import (
    FitResult,
    UnidentifiableFitError,
    _as_columns,
    bootstrap_delta_c,
    fit_transition,
    piecewise_model,
    synthesize_measurement,
)
from nlaa.model import ModelParams, participation_of, participation_ratio

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
# References: exhaustive and sequential candidate searches, lone refits
# -------------------------

def _flat_branches(data):
    """(delta, r, w, [(Delta_c, m, B, right), ...]) of every usable
    candidate in Delta_c order, by the formulas of the one-candidate loop."""
    delta, r, w = _as_columns(data)
    usable = []
    for dc in 0.5 * (delta[:-1] + delta[1:]):
        left = delta <= dc
        m = int(left.sum())
        if m < fitting.MIN_LEFT_POINTS or m == delta.size:
            continue
        wr = w[~left]
        B = float(np.sum(wr ** 2 * r[~left]) / np.sum(wr ** 2))
        if B >= 0 and np.all(r[left] - B > 0):
            usable.append((float(dc), m, B, np.sum((wr * (r[~left] - B)) ** 2)))
    return delta, r, w, usable


def _kernel_fit(delta, r, w, m, B):
    """(A, gamma, left RSS) of one left branch from one least_squares row."""
    sol = fitting.least_squares(np.log(delta), w, r[None], np.array([B]),
                                np.array([m]))
    assert sol.converged[0], "a left-branch fit hit its Newton cap"
    return sol.A[0], sol.gamma[0], sol.rss[0]


def _lm_fit(delta, r, w, m, B):
    """(A, gamma, left RSS) of one left branch by scipy's Levenberg-Marquardt
    from the log-log seed."""
    dl, rl, wl = delta[:m], r[:m], w[:m]
    coef = np.polyfit(np.log(dl), np.log(rl - B), 1)

    def res(p):
        return wl * (p[0] * dl ** (-p[1]) + B - rl)

    A, gamma = scipy.optimize.least_squares(
        res, (np.exp(coef[1]), -coef[0]), method="lm", max_nfev=2000).x
    return A, gamma, np.sum(res((A, gamma)) ** 2)


def _exhaustive_fit_transition(data, totals=None):
    """Every usable candidate, in order, gets its left-branch fit from its
    own least_squares call, and the first with the smallest total RSS wins.
    `totals`, if given, maps each usable candidate's Delta_c to its (total
    RSS, right-branch RSS)."""
    delta, r, w, usable = _flat_branches(data)
    best = None
    for dc, m, B, right in usable:
        A, gamma, left = _kernel_fit(delta, r, w, m, B)
        rss = left + right
        if totals is not None:
            totals[dc] = (float(rss), float(right))
        if best is None or rss < best.rss:
            best = FitResult(A=float(A), B=B, gamma=float(gamma), delta_c=dc,
                             rss=float(rss), n_points=delta.size)
    if best is None:
        raise UnidentifiableFitError("no usable candidate")
    return best


def _sequential_fit_transition(data, fit_left):
    """The candidate search one fit at a time: in (right, position) order,
    stopping at the first right above the best total."""
    delta, r, w, usable = _flat_branches(data)
    best = None
    for i, (dc, m, B, right) in sorted(enumerate(usable), key=lambda c: c[1][3]):
        if best is not None and right > best[0]:
            break
        A, gamma, left = fit_left(delta, r, w, m, B)
        if best is None or (left + right, i) < best[:2]:
            best = (left + right, i, FitResult(A=A, B=B, gamma=gamma, delta_c=dc,
                                               rss=left + right, n_points=delta.size))
    if best is None:
        raise UnidentifiableFitError("no usable candidate")
    return best[2]


def _resamples(data, n_resamples, seed):
    """The rows (delta, r*[, 1/w]) of bootstrap_delta_c's resamples."""
    delta, r, w = _as_columns(data)
    fitted = fit_transition(data).curve(delta)
    resid = r - fitted
    for ss in np.random.SeedSequence(seed).spawn(n_resamples):
        r_star = fitted + np.random.default_rng(ss).choice(resid, size=resid.size,
                                                            replace=True)
        yield np.column_stack([delta, r_star]) if np.all(w == 1.0) \
            else np.column_stack([delta, r_star, 1.0 / w])


def _lone_refits(data, n_resamples, seed):
    """(Delta_c of each resample that fits, failures) from one
    fit_transition call per resample."""
    samples, failures = [], 0
    for rows in _resamples(data, n_resamples, seed):
        try:
            samples.append(fit_transition(rows).delta_c)
        except UnidentifiableFitError:
            failures += 1
    return np.array(samples), failures


def _fit_fields(fit):
    return _bits([fit.A, fit.B, fit.gamma, fit.delta_c, fit.rss]), fit.n_points


# -------------------------
# The batched search against its references
# -------------------------

@given(n=st.integers(6, 16), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1),
       A=st.floats(0.02, 1.0), gamma=st.floats(0.3, 2.5), split=st.floats(0.3, 0.8),
       noise=st.sampled_from([0.0, 0.003, 0.03]))
def test_bootstrap_equals_a_loop_of_lone_fits(n, weighted, seed, A, gamma, split,
                                              noise):
    # one batch for all resamples gives each the bits of its lone fit
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(0.2, 4.0, n))
    dc = float(np.quantile(d, split))
    sigma = rng.uniform(0.005, 0.05, n)
    r = piecewise_model(d, A, 1.0 / 21.0, gamma, dc) + noise * rng.standard_normal(n)
    data = np.column_stack([d, r, sigma]) if weighted else np.column_stack([d, r])
    try:
        base = fit_transition(data)
    except UnidentifiableFitError:
        with pytest.raises(UnidentifiableFitError):
            bootstrap_delta_c(data, n_resamples=100, seed=seed % 1000)
        return
    got = bootstrap_delta_c(data, n_resamples=100, seed=seed % 1000)
    samples, failures = _lone_refits(data, 100, seed % 1000)
    assert got.samples.tobytes() == samples.tobytes()
    assert (got.n_resamples, got.n_failures, got.valid) == \
        (100, failures, failures <= 20)
    want_stderr = np.std(samples, ddof=1) if got.valid and samples.size > 1 \
        else np.nan
    assert _bits(got.stderr) == _bits(want_stderr)
    assert _fit_fields(got.base) == _fit_fields(base)
    assert _bits(got.base.delta_c_stderr) == _bits(got.stderr)


@settings(max_examples=25)
@given(n=st.integers(4, 30), weighted=st.booleans(), repeated=st.booleans(),
       flat=st.booleans(), seed=st.integers(0, 2**32 - 1),
       noise=st.sampled_from([0.0, 1e-9, 0.003, 0.03]))
def test_pruned_search_equals_exhaustive_search(n, weighted, repeated, flat,
                                                seed, noise):
    # the exhaustive loop on nlaa's own least_squares, one row per call: any
    # difference is the pruning's or the batching's
    rng = np.random.default_rng(seed)
    if repeated:        # ties in Delta: equal candidates, equal branches
        d = np.sort(rng.choice(np.linspace(0.2, 4.0, max(2, n // 3)), n))
    else:
        d = np.sort(rng.uniform(0.2, 4.0, n))
    if flat:            # near-flat data: many candidates unusable
        r = 0.05 + 1e-7 * rng.standard_normal(n)
    else:
        r = piecewise_model(d, rng.uniform(0.02, 1.0), 1.0 / 21.0,
                            rng.uniform(0.3, 2.5),
                            float(np.quantile(d, rng.uniform(0.2, 0.9))))
    r = r + noise * rng.standard_normal(n)
    data = np.column_stack([d, r, rng.uniform(0.005, 0.05, n)]) if weighted \
        else np.column_stack([d, r])
    try:
        want = _exhaustive_fit_transition(data)
    except UnidentifiableFitError:
        with pytest.raises(UnidentifiableFitError):
            fit_transition(data)
        return
    assert _fit_fields(fit_transition(data)) == _fit_fields(want)


def test_equal_totals_go_to_the_first_candidate():
    # a point of negligible weight just past Delta_c makes the candidates on
    # either side of it tie in total RSS in some noise draws, and rounding can
    # leave the later one with the smaller right-branch RSS, so it is fit
    # first: the earlier one must still win the tie
    k = int(np.searchsorted(DELTAS, TRUE["delta_c"]))
    sigma = np.full(DELTAS.size, 0.01)
    sigma[k] = 1e12
    early, late = 0.5 * (DELTAS[k - 1:k + 1] + DELTAS[k:k + 2])
    inverted_ties = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        r = _clean_curve() + 0.01 * rng.standard_normal(DELTAS.size)
        # on the power law, so that the later candidate is usable too
        r[k] = TRUE["A"] * DELTAS[k] ** -TRUE["gamma"] + TRUE["B"]
        data = np.column_stack([DELTAS, r, sigma])
        totals = {}
        want = _exhaustive_fit_transition(data, totals)
        assert _fit_fields(fit_transition(data)) == _fit_fields(want)
        (rss_early, right_early), (rss_late, right_late) = \
            totals[early], totals[late]
        if want.rss == rss_early == rss_late and right_late < right_early:
            inverted_ties += 1
    assert inverted_ties >= 1


def test_fit_rss_is_at_most_scipy_lm_rss_on_the_calibration_curves():
    # criterion 11's 100 noisy calibration curves: variable projection ends
    # at least as low as Levenberg-Marquardt from the same log-log seed
    clean = piecewise_model(DELTAS, 0.6, 1.0 / 21.0, 1.2, 1.8)
    for seed in range(100):
        r = clean + np.random.default_rng(seed).normal(0.0, 0.01, DELTAS.size)
        data = np.column_stack([DELTAS, r])
        got = fit_transition(data)
        want = _sequential_fit_transition(data, _lm_fit)
        assert got.rss <= want.rss * (1 + 1e-12), seed
        assert got.delta_c == want.delta_c, seed
        assert got.gamma == pytest.approx(want.gamma, rel=1e-5), seed


def _counting_least_squares(monkeypatch):
    """Patch fitting.least_squares to record the r array of each call."""
    calls = []
    least_squares = fitting.least_squares

    def counted(log_delta, w, r, B, m):
        calls.append(r.copy())
        return least_squares(log_delta, w, r, B, m)

    monkeypatch.setattr(fitting, "least_squares", counted)
    return calls


def test_pruning_skips_most_left_branch_fits(monkeypatch):
    # a search that fit every usable candidate would fit 1939 rows here (the
    # data and its 100 resamples); the pruned one fits 312, about three per
    # data set
    rng = np.random.default_rng(0)
    data = np.column_stack([DELTAS, _clean_curve()
                            + 0.003 * rng.standard_normal(DELTAS.size)])
    calls = _counting_least_squares(monkeypatch)
    bootstrap_delta_c(data, n_resamples=100, seed=0)
    assert 101 <= sum(len(r) for r in calls) <= 400


def test_cli_fits_the_base_data_once(monkeypatch, tmp_path):
    # fit --bootstrap takes the base fit from the bootstrap, which made it
    rng = np.random.default_rng(4)
    r = _clean_curve() + 0.01 * rng.standard_normal(DELTAS.size)
    datafile = tmp_path / "meas.csv"
    datafile.write_text("".join(f"{float(d)!r},{float(v)!r}\n"
                                for d, v in zip(DELTAS, r)))
    calls = _counting_least_squares(monkeypatch)
    fit_transition(np.column_stack([DELTAS, r]))
    lone = len(calls)
    calls.clear()
    assert main(["fit", "--data", str(datafile), "--bootstrap", "100",
                 "--out", str(tmp_path / "out")]) == 0
    assert lone >= 1
    assert sum(any(np.array_equal(row, r) for row in rows) for rows in calls) == lone


def test_a_row_at_its_newton_cap_fails_only_its_resample(monkeypatch):
    # lower the cap until some, but not all, lone refits hit it while the
    # base fit does not: the batched bootstrap fails exactly those resamples
    rng = np.random.default_rng(1)
    data = np.column_stack([DELTAS, _clean_curve()
                            + 0.01 * rng.standard_normal(DELTAS.size)])
    for cap in range(1, fitting.NEWTON_CAP):
        monkeypatch.setattr(fitting, "NEWTON_CAP", cap)
        try:
            fit_transition(data)
        except UnidentifiableFitError as exc:
            assert "did not converge" in str(exc)
            continue
        samples, failures = _lone_refits(data, 100, 7)
        if 0 < failures < 100:
            break
    else:
        pytest.fail("no cap splits the resamples")
    got = bootstrap_delta_c(data, n_resamples=100, seed=7)
    assert got.n_failures == failures
    assert got.samples.tobytes() == samples.tobytes()


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
    # every Delta is ramped in one batch: r is that of the batch's states,
    # within 1e-9 of each lone ramp, and the noise is drawn in Delta order
    deltas = (1.0, 2.5)
    out = synthesize_measurement(0.3, deltas, L=13)
    noisy = synthesize_measurement(0.3, deltas, L=13, noise_sigma=0.01, seed=5)
    rng = np.random.default_rng(5)
    targets = [ModelParams(L=13, J=1.0, Delta=d, phi=0.0, U=0.3) for d in deltas]
    batch, _ = ramp_prepare(targets, EXPERIMENT_RAMP, "gs", dt=1e-3)
    assert out.shape == (2, 2)
    for k, (params, state) in enumerate(zip(targets, batch)):
        lone, _ = ramp_prepare(params, EXPERIMENT_RAMP, "gs", dt=1e-3)
        assert out[k, 0] == params.Delta
        assert out[k, 1] == participation_of(state.density)
        assert abs(out[k, 1] - participation_ratio(lone)) <= 1e-9
        assert noisy[k, 1] == out[k, 1] + rng.normal(0.0, 0.01)


def test_synthesize_es_kind_uses_excited_target():
    deltas = (1.5, 2.0)
    out = synthesize_measurement(0.3, deltas, L=13, kind="es")
    ground = synthesize_measurement(0.3, deltas, L=13)
    for k, delta in enumerate(deltas):
        params = ModelParams(L=13, J=1.0, Delta=delta, phi=0.0, U=0.3)
        state, _ = ramp_prepare(params, EXPERIMENT_RAMP, "es", dt=1e-3)
        assert abs(out[k, 1] - participation_ratio(state)) <= 1e-9
        assert abs(out[k, 1] - ground[k, 1]) > 1e-3


def test_synthesize_raises_the_message_of_the_first_failing_ramp(monkeypatch):
    # U/J = 4e4 outruns DOP853's step budget (it needs about 1e5 steps per
    # unit time; 1e3 keeps the test short): the first failing ramp is the
    # one ramp of all Delta, and its message is the integrator's
    monkeypatch.setattr(dynamics, "STEPS_PER_TIME", 1e3)
    with pytest.warns(UserWarning, match="self-trapping"):
        targets = [ModelParams(L=13, J=1.0, Delta=d, phi=0.0, U=4e4)
                   for d in (1.0, 2.0)]
    with pytest.raises(RuntimeError) as batch:
        ramp_prepare(targets, EXPERIMENT_RAMP, "gs", dt=1e-3)
    ramped = []

    def recording_ramp(p, *args, **kwargs):
        ramped.append([q.Delta for q in p])
        return ramp_prepare(p, *args, **kwargs)

    monkeypatch.setattr(fitting, "ramp_prepare", recording_ramp)
    with pytest.warns(UserWarning, match="self-trapping"):
        with pytest.raises(RuntimeError, match="DOP853 failed at t=") as synthesized:
            synthesize_measurement(4e4, [1.0, 2.0], L=13)
    assert str(synthesized.value) == str(batch.value)
    assert ramped == [[1.0, 2.0]]


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
