"""ODE evaluation, integration, and the two-stage fit against oracles."""

import math
import warnings

import numpy as np
import pytest

from odeaug.errors import (DivergenceError, RefinementFailedError,
                           UnidentifiableError)
from odeaug.ode import (FitConfig, OdeParams, PsoConfig, SeriesPair, SgdConfig,
                        equilibrium, fit, fit_gradient_sgd, integrate,
                        integration_rmse,
                        params_from_dict, params_to_dict, refine_pso, rhs,
                        stability_notes, _candidate_box,
                        _divergence_bound, _retained_indices, _seed_entropy,
                        _sgd_minimize)
from odeaug.series import derivative, moving_average


def two_level_pair(params, n=400, dt=0.1, noise=0.0, seed=7):
    """Noisy or clean (control, dependent) pair from known parameters."""
    rng = np.random.default_rng(seed)
    u = np.empty(n)
    pos, high = 0, True
    while pos < n:
        dur = int(rng.integers(30, 71))
        level = rng.uniform(0.7, 1.0) if high else rng.uniform(0.1, 0.3)
        u[pos:pos + dur] = level
        pos += dur
        high = not high
    p0, p1, p2 = params
    x0 = (p0 * u[0] + p2) / p1
    x = integrate(OdeParams.single(params, n), x0, u, dt)
    if noise > 0:
        x = x + rng.normal(0.0, noise * (x.max() - x.min()), n)
    return SeriesPair(u, x, dt)


class TestEvaluateRhs:
    """``rhs(params, x, u)`` against hand-computed values."""

    def test_direct_substitution(self):
        assert rhs((1, 1, 0), 0.0, 1.0) == pytest.approx(1.0)

    def test_equilibrium_point(self):
        assert rhs((1, 1, 0), 1.0, 1.0) == pytest.approx(0.0)

    def test_general_case(self):
        assert rhs((2, 0.5, 0.1), 0.4, 0.3) == pytest.approx(0.5)

    def test_equilibrium_zeroes_rhs(self):
        p, u = (2.0, 0.5, 0.1), 0.6
        assert equilibrium(p, u) == (p[0] * u + p[2]) / p[1]
        assert rhs(p, equilibrium(p, u), u) == pytest.approx(0.0, abs=1e-12)


class TestOdeParams:
    def test_windows_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            OdeParams([(0, 10, (1, 1, 0)), (12, 20, (1, 1, 0))])

    @pytest.mark.parametrize("window, match", [
        # int() truncated 10.5, and float() took True and "1"
        ((0, 10.5, (1, 1, 0)), "window end"),
        (("0", 10, (1, 1, 0)), "window start"),
        ((0, 10, (True, 1, 0)), "window parameters"),
        ((0, 10, ("1", 1, 0)), "window parameters"),
        ((0, 10, (1, math.nan, 0)), "window parameters"),
    ])
    def test_window_fields_are_checked(self, window, match):
        with pytest.raises(ValueError, match=match):
            OdeParams([window])

    def test_stability_note_for_nonpositive_decay(self):
        p = OdeParams.single((1.0, -0.5, 0.0), 10)
        notes = stability_notes(p)
        assert len(notes) == 1 and "decay" in notes[0]
        assert stability_notes(OdeParams.single((1, 1, 0), 10)) == []


class TestIntegrate:
    def test_matches_closed_form_exponential(self):
        n, dt = 1001, 0.01
        traj = integrate(OdeParams.single((1, 1, 0), n), 0.0, np.ones(n), dt)
        t = np.arange(n) * dt
        assert np.max(np.abs(traj - (1.0 - np.exp(-t)))) < 1e-6

    def test_zero_rhs_is_constant(self):
        traj = integrate(OdeParams.single((0, 0, 0), 50), 3.5,
                         np.linspace(0, 1, 50), 0.1)
        assert np.allclose(traj, 3.5)

    def test_equilibrium_start_stays_constant(self):
        p = (2.0, 0.5, 0.1)
        u = np.full(80, 0.6)
        x_eq = (p[0] * 0.6 + p[2]) / p[1]
        traj = integrate(OdeParams.single(p, 80), x_eq, u, 0.05)
        assert np.allclose(traj, x_eq, atol=1e-12)

    def test_fourth_order_convergence(self):
        def max_err(dt):
            n = int(round(10.0 / dt)) + 1
            traj = integrate(OdeParams.single((1, 1, 0), n), 0.0, np.ones(n), dt)
            t = np.arange(n) * dt
            return np.max(np.abs(traj - (1.0 - np.exp(-t))))

        ratio = max_err(0.01) / max_err(0.005)
        assert 8.0 <= ratio <= 32.0

    def test_divergence_reports_step_index(self):
        # positive feedback blows up quickly
        with pytest.raises(DivergenceError) as err:
            integrate(OdeParams.single((0.0, -80.0, 0.0), 2000), 1.0,
                      np.zeros(2000), 0.1, abs_bound=1e6)
        assert err.value.step_index > 0

    def test_array_params_match_tuple_params(self):
        u = np.linspace(0.1, 0.9, 60)
        from_array = integrate(np.array([1.0, 0.5, 0.0]), 0.2, u, 0.1)
        from_tuple = integrate((1.0, 0.5, 0.0), 0.2, u, 0.1)
        assert from_array.tobytes() == from_tuple.tobytes()

    def test_out_of_span_steps_clamp_to_last_window(self):
        # step i runs under the first window with i < end; every step past
        # the 20-sample span runs under the last window
        windows = [(0, 10, (1.0, 1.0, 0.0)), (10, 20, (2.0, 0.4, 0.3))]
        u = np.random.default_rng(5).uniform(0.1, 1.0, 40)
        dt = 0.1
        expected = [0.2]
        for i in range(39):
            p = windows[0][2] if i < 10 else windows[1][2]
            x = expected[-1]
            k1 = rhs(p, x, u[i])
            k2 = rhs(p, x + 0.5 * dt * k1, u[i])
            k3 = rhs(p, x + 0.5 * dt * k2, u[i])
            k4 = rhs(p, x + dt * k3, u[i])
            expected.append(x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4))
        traj = integrate(OdeParams(windows), 0.2, u, dt)
        assert traj.tobytes() == np.array(expected).tobytes()

    def test_monotone_approach_to_equilibrium(self):
        p = (2.0, 0.5, 0.1)
        u = np.full(400, 0.9)
        x_eq = (p[0] * 0.9 + p[2]) / p[1]
        traj = integrate(OdeParams.single(p, 400), 0.0, u, 0.1)
        diffs = np.diff(traj)
        assert np.all(diffs > -1e-12)
        assert np.all(traj <= x_eq + 1e-9)


def normal_equations_oracle(pair, q, config):
    """Closed-form least squares on exactly the retained points."""
    sm = moving_average(pair.dependent, config.smooth_window)
    g = derivative(sm, pair.sample_period, 1)
    keep = _retained_indices(sm, pair.sample_period, q, config.curvature_max_order)
    a = np.column_stack([pair.control[keep], -sm[keep], np.ones(keep.shape[0])])
    theta, *_ = np.linalg.lstsq(a, g[keep], rcond=None)
    return theta


class TestFitGradientSgd:
    def test_round_trip_recovers_parameters(self):
        true = (1.5, 0.8, 0.2)
        pair = two_level_pair(true, n=500)
        cands = fit_gradient_sgd(pair, (0.05, 0.1, 0.2), FitConfig(seed=3))
        best = cands[0].params
        assert all(abs(b - t) / abs(t) < 0.05 for b, t in zip(best, true))

    def test_candidates_sorted_by_rmse(self):
        pair = two_level_pair((1.5, 0.8, 0.2))
        cands = fit_gradient_sgd(pair, (0.0, 0.1), FitConfig(seed=1))
        rmses = [c.rmse for c in cands]
        assert rmses == sorted(rmses)

    def test_matches_normal_equations_oracle(self):
        config = FitConfig(seed=3)
        pair = two_level_pair((1.5, 0.8, 0.2), n=500)
        cands = fit_gradient_sgd(pair, (0.05, 0.1, 0.2), config)
        for cand in cands:
            theta = normal_equations_oracle(pair, cand.drop_fraction, config)
            assert np.max(np.abs(np.asarray(cand.params) - theta)) < 1e-3

    def test_equilibrium_design_unidentifiable(self):
        u = np.full(100, 0.5)
        x = np.full(100, (1.5 * 0.5 + 0.2) / 0.8)
        pair = SeriesPair(u, x, 0.1)
        with pytest.raises(UnidentifiableError):
            fit_gradient_sgd(pair, (0.0,), FitConfig())

    def test_bad_drop_fraction_rejected(self):
        pair = two_level_pair((1.5, 0.8, 0.2))
        with pytest.raises(ValueError, match="fraction"):
            fit_gradient_sgd(pair, (0.7,), FitConfig())

    def test_too_few_points_rejected(self):
        pair = two_level_pair((1.5, 0.8, 0.2), n=40)
        with pytest.raises(ValueError, match="retained"):
            fit_gradient_sgd(pair, (0.5,), FitConfig())

    def test_huge_learning_rate_diverges(self):
        pair = two_level_pair((1.5, 0.8, 0.2))
        config = FitConfig(sgd=SgdConfig(learning_rate=1e3, epochs=100))
        with pytest.raises(UnidentifiableError, match="diverged"):
            fit_gradient_sgd(pair, (0.1,), config)


class TestRefinePso:
    def test_never_worse_than_best_candidate(self):
        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.01, seed=5)
        cands = fit_gradient_sgd(pair, (0.05, 0.2), FitConfig(seed=1))
        refined, rmse = refine_pso(
            [c.params for c in cands], pair, PsoConfig(seed=2, iterations=40),
        )
        assert rmse <= cands[0].rmse + 1e-15

    def test_true_candidate_keeps_zero_rmse(self):
        true = (1.5, 0.8, 0.2)
        pair = two_level_pair(true, seed=6)
        base = integration_rmse(OdeParams.single(true, len(pair)), pair)
        _, rmse = refine_pso([true, (2.0, 1.0, 0.3)], pair,
                             PsoConfig(seed=3, iterations=20))
        assert rmse <= base + 1e-15

    def test_zero_iterations_is_identity(self):
        pair = two_level_pair((1.5, 0.8, 0.2))
        cand = (1.4, 0.75, 0.18)
        params, rmse = refine_pso([cand], pair, PsoConfig(iterations=0))
        assert params == cand
        assert rmse == pytest.approx(
            integration_rmse(OdeParams.single(cand, len(pair)), pair)
        )

    def test_monotone_in_iteration_count(self):
        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.02, seed=9)
        cands = [(1.0, 0.5, 0.0), (2.0, 1.2, 0.4)]
        rmses = [
            refine_pso(cands, pair, PsoConfig(seed=4, iterations=k))[1]
            for k in (0, 5, 15, 30)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(rmses, rmses[1:]))

    def test_all_divergent_raises_with_fallback(self):
        pair = two_level_pair((1.5, 0.8, 0.2), n=2000)
        bad = [(0.0, -80.0, 0.0)]
        with pytest.raises(RefinementFailedError) as err:
            refine_pso(bad, pair, PsoConfig(seed=1, iterations=0))
        assert err.value.best_params == bad[0]


class TestFit:
    def test_round_trip_noiseless(self):
        true = (1.5, 0.8, 0.2)
        pair = two_level_pair(true, n=500, seed=11)
        report = fit(pair, FitConfig(seed=0))
        got = report.params.windows[0][2]
        assert all(abs(g - t) / abs(t) < 0.05 for g, t in zip(got, true))
        assert not report.pso_used

    def test_rmse_self_consistent(self):
        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.01, seed=13)
        report = fit(pair, FitConfig(seed=0))
        again = integration_rmse(report.params, pair)
        assert abs(report.rmse - again) <= 1e-9

    def test_short_pair_rejected(self):
        pair = SeriesPair(np.ones(10), np.ones(10), 0.1)
        with pytest.raises(ValueError):
            fit(pair, FitConfig())

    def test_segment_windows_mode(self):
        pair = two_level_pair((1.5, 0.8, 0.2), n=500, seed=17)
        half = len(pair) // 2
        config = FitConfig(seed=0, window_bounds=[(0, half), (half, len(pair))])
        report = fit(pair, config)
        assert len(report.params.windows) == 2
        windows = report.params.windows
        assert (windows[0][0], windows[-1][1]) == (0, len(pair))
        for _, _, params in report.params.windows:
            assert all(abs(g - t) / abs(t) < 0.1
                       for g, t in zip(params, (1.5, 0.8, 0.2)))

    def test_dropped_fraction_reported(self):
        pair = two_level_pair((1.5, 0.8, 0.2), seed=19)
        config = FitConfig(seed=0)
        report = fit(pair, config)
        assert 0.0 <= report.dropped_fraction < 0.5
        # one window: the best gradient-stage candidate's fraction
        best = fit_gradient_sgd(pair, config.drop_fractions, config)[0]
        assert report.dropped_fraction == best.drop_fraction


@pytest.mark.parametrize("config, name, value", [
    (SgdConfig, "epochs", 0), (SgdConfig, "epochs", 2.5),
    (SgdConfig, "learning_rate", 0.0), (SgdConfig, "learning_rate", math.inf),
    (SgdConfig, "learning_rate", math.nan),
    (SgdConfig, "warmup_fraction", -0.1), (SgdConfig, "warmup_fraction", 1.5),
    (SgdConfig, "average_fraction", 1.01),
    (SgdConfig, "average_fraction", math.nan),
    (SgdConfig, "lr_decay", -0.3), (SgdConfig, "lr_decay", math.nan),
    (PsoConfig, "swarm_size", 0), (PsoConfig, "swarm_size", 3.0),
    (PsoConfig, "iterations", -5), (PsoConfig, "inertia", math.nan),
    (PsoConfig, "cognitive", math.inf), (PsoConfig, "social", -math.inf),
    (FitConfig, "drop_fractions", ()), (FitConfig, "drop_fractions", (0.1, 0.6)),
    (FitConfig, "drop_fractions", (-0.05,)),
    (FitConfig, "drop_fractions", (math.nan,)),
    (FitConfig, "smooth_window", 0), (FitConfig, "smooth_window", 2.5),
    (FitConfig, "smooth_window", 4),
    (FitConfig, "min_points", 2),
    (FitConfig, "window_bounds", [(0, 50), (80, 200)]),
    (FitConfig, "window_bounds", [(10, 50), (50, 200)]),
    (FitConfig, "window_bounds", [(0, 50), (50, 50)]),
    (FitConfig, "window_bounds", [(50, 100), (0, 50)]),
    (FitConfig, "window_bounds", [(0, 50.5), (50.5, 200)]),
])
def test_fit_config_rejects_bad_value(config, name, value):
    with pytest.raises(ValueError, match=name):
        config(**{name: value})


class TestParameterArity:
    def test_document_with_short_window_rejected(self):
        doc = params_to_dict(OdeParams.single((1.0, 0.5, 0.0), 10))
        doc["windows"][0]["params"] = [1.0, 0.5]
        with pytest.raises(ValueError, match="expects 3 parameters"):
            params_from_dict(doc)

    @pytest.mark.parametrize("params", [
        (1.0, 0.5),
        [(0, 5, (1.0, 0.5, 0.0)), (5, 10, (1.0, 0.5, 0.0, 2.0))],
        np.ones((4, 2)),
    ])
    def test_integrate_rejects_wrong_arity(self, params):
        with pytest.raises(ValueError, match="expects 3 parameters"):
            # a list of windows is checked as it becomes OdeParams
            if isinstance(params, list):
                params = OdeParams(params)
            integrate(params, 0.0, np.ones(10), 0.1)

    def test_empty_control_reported_before_params(self):
        with pytest.raises(ValueError, match="at least one sample"):
            integrate((1.0, 0.5, 0.0), 0.0, np.array([]), 0.1)


def reference_pso(candidates, pair, config):
    """The swarm with one integration per particle, as a plain loop."""
    cand = [tuple(float(v) for v in c) for c in candidates]
    bound = _divergence_bound(pair.dependent)

    def objective(vec):
        return integration_rmse(OdeParams.single(vec, len(pair)), pair,
                                abs_bound=bound)

    rng = np.random.default_rng(
        np.random.SeedSequence([_seed_entropy(config.seed), 202])
    )
    n_particles = max(config.swarm_size, len(cand))
    lo, hi = _candidate_box(cand)
    x = np.empty((n_particles, len(cand[0])))
    x[: len(cand)] = cand
    if n_particles > len(cand):
        x[len(cand):] = rng.uniform(lo, hi, size=(n_particles - len(cand), x.shape[1]))
    v = np.zeros_like(x)
    pbest = x.copy()
    pbest_f = np.full(n_particles, np.inf)
    for i in range(len(cand)):
        pbest_f[i] = objective(x[i])
    g_idx = int(np.argmin(pbest_f))
    gbest, gbest_f = pbest[g_idx].copy(), float(pbest_f[g_idx])
    diverged = 0
    for _ in range(config.iterations):
        r1 = rng.random(x.shape)
        r2 = rng.random(x.shape)
        v = (config.inertia * v
             + config.cognitive * r1 * (pbest - x)
             + config.social * r2 * (gbest - x))
        x = x + v
        fitness = np.array([objective(xi) for xi in x])
        diverged += int(np.sum(np.isinf(fitness)))
        improved = fitness < pbest_f
        pbest[improved] = x[improved]
        pbest_f[improved] = fitness[improved]
        g_idx = int(np.argmin(pbest_f))
        if pbest_f[g_idx] < gbest_f:
            gbest, gbest_f = pbest[g_idx].copy(), float(pbest_f[g_idx])
    return tuple(float(v) for v in gbest), gbest_f, diverged


def reference_integrate(params, x0, control, dt, abs_bound=None):
    """RK4 as a numpy time loop over :func:`rhs`, for one trajectory or a
    ``(P, 3)`` swarm stepped together."""
    control = np.asarray(control, dtype=float)
    n = control.shape[0]
    swarm = isinstance(params, np.ndarray) and params.ndim == 2
    if swarm:
        windows = [(0, n, tuple(np.ascontiguousarray(params.T, dtype=float)))]
        x = np.full(params.shape[0], float(x0))
        out = np.empty((params.shape[0], n))
    else:
        if not isinstance(params, OdeParams):
            params = OdeParams.single(params, n)
        windows = params.windows
        x = float(x0)
        out = np.empty(n)
    out[..., 0] = x
    half = 0.5 * dt
    sixth = dt / 6.0
    stops = [min(max(end, 0), n - 1) for _, end, _ in windows[:-1]] + [n - 1]
    with np.errstate(all="ignore"):
        for start, stop, (_, _, p) in zip([0] + stops, stops, windows):
            for i in range(start, stop):
                u = control[i]
                k1 = rhs(p, x, u)
                k2 = rhs(p, x + half * k1, u)
                k3 = rhs(p, x + half * k2, u)
                k4 = rhs(p, x + dt * k3, u)
                x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
                out[..., i + 1] = x
        steps = out[..., 1:]
        bad = ~np.isfinite(steps)
        if abs_bound is not None:
            bad |= np.abs(steps) > abs_bound
    if not swarm:
        if bad.any():
            raise DivergenceError(int(np.argmax(bad)) + 1)
        return out
    for row in np.flatnonzero(bad.any(axis=-1)):
        out[row, int(np.argmax(bad[row])) + 1:] = np.nan
    return out


#: The swarm sums the same affine RK4 steps as the loop in another order.
SWARM_RTOL = 1e-12


def assert_swarm_close(got, want):
    """Same shape (assert_allclose would broadcast), NaN in the same
    places, finite values to SWARM_RTOL."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=SWARM_RTOL, atol=0)


class TestSwarm:
    def test_rows_match_reference_loop(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(0.1, 0.9, 257)
        swarm = np.column_stack([
            rng.uniform(0.5, 2.0, 9), rng.uniform(0.1, 1.5, 9),
            rng.uniform(-0.3, 0.3, 9),
        ])
        traj = integrate(swarm, 0.4, u, 0.1, abs_bound=1e6)
        assert traj.shape == (9, 257)
        assert_swarm_close(traj, reference_integrate(swarm, 0.4, u, 0.1,
                                                     abs_bound=1e6))
        for row, params in zip(traj, swarm):
            assert_swarm_close(row, integrate(params, 0.4, u, 0.1,
                                              abs_bound=1e6))

    @pytest.mark.parametrize("abs_bound", [None, 100.0])
    def test_diverged_rows_are_nan_from_the_reported_step(self, abs_bound):
        n, dt = 300, 0.1
        u = np.zeros(n)
        u[10:20] = 1.0
        swarm = np.array([
            [1.0, 0.5, 0.0],        # relaxes to rest
            [0.0, -80.0, 0.0],      # grows to inf
            [1.0, -800.0, 1.0],     # grows faster
            [200.0, 1.0, 0.0],      # the pulse peaks near 126, then relaxes
            [2.0, 0.7, 0.1],
        ])
        pair = SeriesPair(u, np.linspace(1.0, 2.0, n), dt)
        traj = integrate(swarm, 1.0, u, dt, abs_bound=abs_bound)
        rmse = integration_rmse(swarm, pair, abs_bound=abs_bound)
        assert rmse.dtype == np.float64 and rmse.shape == (5,)
        diverged = 0
        for row, params, score in zip(traj, swarm, rmse):
            try:
                single = reference_integrate(params, 1.0, u, dt,
                                             abs_bound=abs_bound)
            except DivergenceError as err:
                diverged += 1
                step = err.step_index
                assert np.all(np.isfinite(row[:step]))
                assert np.all(np.isnan(row[step:]))
                assert score == np.inf
            else:
                assert_swarm_close(row, single)
                assert score == pytest.approx(
                    integration_rmse(params, pair, abs_bound=abs_bound),
                    rel=SWARM_RTOL, abs=0)
        assert diverged == (2 if abs_bound is None else 3)
        # the pulse row crossed the bound and came back below it
        back = integrate(swarm[3], 1.0, u, dt)
        assert np.max(back) > 100.0 > back[-1]

    @pytest.mark.parametrize("candidates, seed, iterations, some_diverge", [
        ([(1.0, 0.5, 0.0), (2.0, 1.2, 0.4)], 4, 15, False),
        ([(1.4, 0.75, 0.18), (0.0, -80.0, 0.0)], 7, 12, True),
    ])
    def test_refine_pso_matches_per_particle_loop(self, candidates, seed,
                                                  iterations, some_diverge):
        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.02, seed=9)
        config = PsoConfig(seed=seed, iterations=iterations)
        params, rmse = refine_pso(candidates, pair, config)
        ref_params, ref_rmse, diverged = reference_pso(candidates, pair, config)
        assert params == ref_params
        assert rmse == pytest.approx(ref_rmse, rel=SWARM_RTOL, abs=0)
        assert (diverged > 0) == some_diverge

    @pytest.mark.parametrize("pair_seed", [4, 7])
    def test_refine_pso_matches_per_particle_loop_on_other_data(self,
                                                                pair_seed):
        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.02, seed=pair_seed)
        candidates = [(1.4, 0.75, 0.18), (0.0, -80.0, 0.0)]
        config = PsoConfig(seed=pair_seed, iterations=12)
        params, rmse = refine_pso(candidates, pair, config)
        ref_params, ref_rmse, _ = reference_pso(candidates, pair, config)
        assert params == ref_params
        assert rmse == pytest.approx(ref_rmse, rel=SWARM_RTOL, abs=0)

    @pytest.mark.parametrize("abs_bound", [None, 1e6])
    def test_nonpositive_decay_grows_like_the_loop(self, abs_bound):
        # decay <= 0 makes the step factor a >= 1: rows grow, some past
        # the bound or out of the floats
        rng = np.random.default_rng(3)
        u = rng.uniform(0.1, 0.9, 400)
        swarm = np.array([
            [1.0, 0.0, 0.2], [0.5, -0.05, 0.1], [1.2, -0.5, 0.3],
            [0.0, -80.0, 0.0], [2.0, 0.8, 0.2], [1.0, -800.0, 1.0],
        ])
        traj = integrate(swarm, 0.4, u, 0.1, abs_bound=abs_bound)
        ref = reference_integrate(swarm, 0.4, u, 0.1, abs_bound=abs_bound)
        assert_swarm_close(traj, ref)
        assert np.isnan(traj[3, -1]) and np.isnan(traj[5, -1])
        assert np.isnan(traj[2, -1]) == (abs_bound is not None)

    @pytest.mark.parametrize("abs_bound", [None, 1e302])
    def test_stage_overflow_ends_the_row_where_the_loop_does(self, abs_bound):
        # from 1e301 at decay -800 the loop's k4 overflows in the first
        # step, while the state it would reach, a * 1e301, is finite
        swarm = np.array([[0.0, -800.0, 0.0], [1.5, 0.8, 0.2]])
        traj = integrate(swarm, 1e301, np.zeros(3), 0.1, abs_bound=abs_bound)
        with pytest.raises(DivergenceError) as err:
            reference_integrate(swarm[0], 1e301, np.zeros(3), 0.1)
        assert err.value.step_index == 1
        assert traj[0, 0] == 1e301 and np.all(np.isnan(traj[0, 1:]))
        assert_swarm_close(traj, reference_integrate(swarm, 1e301,
                                                     np.zeros(3), 0.1,
                                                     abs_bound=abs_bound))

    @pytest.mark.parametrize("abs_bound", [None, 1.0])
    def test_unforced_rest_state_stays_exactly_zero(self, abs_bound):
        # a^k overflows for decay -800 while the state stays 0: the scan
        # must not turn inf * 0 into NaN
        u = np.random.default_rng(4).uniform(0.0, 1.0, 300)
        # and at |decay| 1e80 and 1e110, a and then s themselves overflow
        swarm = np.array([[0.0, -800.0, 0.0], [0.0, -80.0, 0.0],
                          [0.0, -1e80, 0.0], [0.0, 1e80, 0.0],
                          [0.0, -1e110, 0.0], [1.0, 0.5, 0.0]])
        traj = integrate(swarm, 0.0, u, 0.1, abs_bound=abs_bound)
        ref = reference_integrate(swarm, 0.0, u, 0.1, abs_bound=abs_bound)
        assert np.all(traj[:-1] == 0.0) and np.all(ref[:-1] == 0.0)
        assert_swarm_close(traj, ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_controls(self, n):
        u = np.linspace(0.2, 0.8, n)
        swarm = np.array([[1.5, 0.8, 0.2], [0.0, -800.0, 1.0]])
        traj = integrate(swarm, 0.4, u, 0.1, abs_bound=1e6)
        assert traj.shape == (2, n) and traj[0, 0] == traj[1, 0] == 0.4
        assert_swarm_close(traj, reference_integrate(swarm, 0.4, u, 0.1,
                                                     abs_bound=1e6))

    def test_one_particle_swarm(self):
        u = np.random.default_rng(5).uniform(0.1, 0.9, 150)
        swarm = np.array([[1.5, 0.8, 0.2]])
        traj = integrate(swarm, 0.3, u, 0.1)
        assert traj.shape == (1, 150)
        assert_swarm_close(traj, reference_integrate(swarm, 0.3, u, 0.1))
        assert_swarm_close(traj[0], integrate(swarm[0], 0.3, u, 0.1))

    def test_every_particle_diverging_raises(self):
        pair = two_level_pair((1.5, 0.8, 0.2), n=2000)
        bad = (0.0, -80.0, 0.0)
        with pytest.raises(RefinementFailedError) as err:
            refine_pso([bad], pair, PsoConfig(seed=1, iterations=5))
        assert err.value.best_params == bad
        bound = _divergence_bound(pair.dependent)
        swarm = np.array([bad, (0.1, -76.0, 0.0), (-0.3, -84.0, 0.2)])
        assert np.all(integration_rmse(swarm, pair, abs_bound=bound) == np.inf)


class TestSingleTrajectory:
    """The plain-float RK4 loop against the numpy loop, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_window_params_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 120))
        u = rng.uniform(0.0, 1.0, n)
        cuts = np.sort(rng.choice(np.arange(1, n // 2), 3, replace=False))
        bounds = [0, *cuts.tolist(), n // 2]    # the last window ends early
        windows = [(s, e, (rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.5),
                           rng.uniform(-0.3, 0.3)))
                   for s, e in zip(bounds, bounds[1:])]
        params = OdeParams(windows)
        for x0 in (np.float64(rng.uniform(-1.0, 1.0)), 1, 0):
            got = integrate(params, x0, u, 0.1)
            want = reference_integrate(params, x0, u, 0.1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_windows_past_the_control_are_clamped(self):
        u = np.random.default_rng(6).uniform(0.0, 1.0, 30)
        params = OdeParams([(0, 20, (1.0, 0.5, 0.0)), (20, 60, (2.0, 0.4, 0.3)),
                            (60, 90, (0.3, 1.2, -0.1))])
        for dt in (0.1, 1):
            got = integrate(params, 0.2, u, dt)
            assert got.tobytes() == reference_integrate(
                params, 0.2, u, dt).tobytes()

    @pytest.mark.parametrize("bad_value, at", [(np.nan, 17), (np.inf, 5),
                                               (-np.inf, 40)])
    def test_non_finite_control_diverges_at_the_same_step(self, bad_value, at):
        u = np.random.default_rng(7).uniform(0.0, 1.0, 60)
        u[at] = bad_value
        for abs_bound in (None, 1e6):
            with pytest.raises(DivergenceError) as got:
                integrate((1.5, 0.8, 0.2), 0.4, u, 0.1, abs_bound=abs_bound)
            with pytest.raises(DivergenceError) as want:
                reference_integrate((1.5, 0.8, 0.2), 0.4, u, 0.1,
                                    abs_bound=abs_bound)
            assert got.value.step_index == want.value.step_index == at + 1

    @pytest.mark.parametrize("params, abs_bound", [
        ((0.0, -80.0, 0.0), None), ((0.0, -80.0, 0.0), 1e6),
        ((1.0, -800.0, 1.0), None), ((1.0, -0.5, 0.3), 50.0),
    ])
    def test_divergence_step_matches_reference(self, params, abs_bound):
        u = np.random.default_rng(8).uniform(0.0, 1.0, 300)
        with pytest.raises(DivergenceError) as got:
            integrate(params, 1.0, u, 0.1, abs_bound=abs_bound)
        with pytest.raises(DivergenceError) as want:
            reference_integrate(params, 1.0, u, 0.1, abs_bound=abs_bound)
        assert got.value.step_index == want.value.step_index


def reference_sgd(targets, rows, offsets, config, rng):
    """The gradient-stage SGD as a generic loop over ``k`` parameters, with
    the loss checked after every epoch."""
    n, n_params = rows.shape
    pre = 1.0 / np.maximum(np.mean(rows * rows, axis=0), 1e-300)
    feat_rows = rows.tolist()
    pf_rows = (rows * pre).tolist()
    y_off = (targets - offsets).tolist()
    p_work = [0.0] * n_params
    order = np.arange(n)
    warmup = int(config.warmup_fraction * config.epochs)
    avg_start = int((1.0 - config.average_fraction) * config.epochs)
    p = np.zeros(n_params)
    acc = np.zeros(n_params)
    n_acc = 0
    for epoch in range(config.epochs):
        lr = (config.learning_rate if epoch < warmup else
              config.learning_rate / (1.0 + config.lr_decay * (epoch - warmup)))
        two_lr = 2.0 * lr
        rng.shuffle(order)
        for t in order.tolist():
            f = feat_rows[t]
            r = y_off[t]
            for j in range(n_params):
                r -= f[j] * p_work[j]
            c = two_lr * r
            pf = pf_rows[t]
            for j in range(n_params):
                p_work[j] += c * pf[j]
        p = np.array(p_work)
        resid = targets - offsets - rows @ p
        with np.errstate(over="ignore"):
            loss = float(np.mean(resid * resid))
        if not math.isfinite(loss):
            raise UnidentifiableError("gradient regression diverged")
        if epoch >= avg_start:
            acc += p
            n_acc += 1
    return acc / n_acc if n_acc else p


def sgd_design(pair, q, config):
    """``(targets, rows, offsets)`` as ``fit_gradient_sgd`` builds them."""
    smoothed = moving_average(pair.dependent, config.smooth_window)
    targets = derivative(smoothed, pair.sample_period, 1)
    keep = _retained_indices(smoothed, pair.sample_period, q,
                             config.curvature_max_order)
    xs, us = smoothed[keep], pair.control[keep]
    offsets = rhs(np.zeros(3), xs, us)
    rows = np.column_stack([rhs(e_j, xs, us) - offsets
                            for e_j in np.eye(3)])
    return targets[keep], rows, offsets


class TestSgdFastPath:
    """The unrolled linear1 SGD against the generic loop, bit for bit."""

    @pytest.mark.parametrize("q, seed, sgd", [
        (0.0, 1, SgdConfig(epochs=40)),
        (0.05, 2, SgdConfig(epochs=75)),    # several loss-check blocks
        (0.2, 3, SgdConfig(epochs=30, average_fraction=0.0)),
        (0.1, 4, SgdConfig(epochs=25, warmup_fraction=0.0)),
        (0.5, 5, SgdConfig(epochs=25, warmup_fraction=1.0,
                           average_fraction=1.0)),
        (0.1, 6, SgdConfig(epochs=1)),
        (0.2, 7, SgdConfig(epochs=1, average_fraction=0.0,
                           learning_rate=0.3, lr_decay=2.0)),
    ])
    def test_matches_generic_loop(self, q, seed, sgd):
        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.02, seed=seed)
        design = sgd_design(pair, q, FitConfig())
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p = _sgd_minimize(*design, sgd, rng)
        ref = reference_sgd(*design, sgd, ref_rng)
        assert p.dtype == ref.dtype and p.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_divergence_in_a_late_epoch_is_found(self):
        # at this rate the generic loop first sees a non-finite loss in
        # epoch 68, several blocks into the deferred check
        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.02, seed=2)
        design = sgd_design(pair, 0.1, FitConfig())
        before = SgdConfig(learning_rate=0.33, epochs=67, warmup_fraction=1.0)
        p = _sgd_minimize(*design, before, np.random.default_rng(0))
        ref = reference_sgd(*design, before, np.random.default_rng(0))
        assert p.tobytes() == ref.tobytes()
        after = SgdConfig(learning_rate=0.33, epochs=80, warmup_fraction=1.0)
        for solver in (_sgd_minimize, reference_sgd):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(UnidentifiableError, match="diverged"):
                    solver(*design, after, np.random.default_rng(0))

    @pytest.mark.parametrize("learning_rate, epochs, stop", [
        (1e3, 100, 1),
        # the iterate first leaves the floats in epoch 141; the loss is
        # non-finite from epoch 68 on
        (0.33, 200, 141),
    ])
    def test_divergence_stops_at_the_first_non_finite_iterate(
            self, learning_rate, epochs, stop):
        class CountingRng:
            def __init__(self, rng):
                self.rng = rng
                self.shuffles = 0

            def shuffle(self, order):
                self.shuffles += 1
                self.rng.shuffle(order)

        pair = two_level_pair((1.5, 0.8, 0.2), noise=0.02, seed=2)
        design = sgd_design(pair, 0.1, FitConfig())
        rng = CountingRng(np.random.default_rng(0))
        config = SgdConfig(learning_rate=learning_rate, epochs=epochs,
                           warmup_fraction=1.0)
        with pytest.raises(UnidentifiableError, match="diverged"):
            _sgd_minimize(*design, config, rng)
        assert rng.shuffles == stop
