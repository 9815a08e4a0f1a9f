"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with timings.  The directional-replication criterion
dominates the runtime (several minutes of LSTM training).
"""

import math
import time

import numpy as np
import pytest

from odeaug.benchmark import BenchmarkConfig, gen_benchmark
from odeaug.experiment import augmentation_curve, run_experiment
from odeaug.lstm import PredictorConfig, init_network, loss_and_gradients
from odeaug.metrics import prf_metrics
from odeaug.ode import (FitConfig, OdeParams, PsoConfig, SeriesPair,
                        fit, fit_gradient_sgd, integrate, refine_pso,
                        _retained_indices)
from odeaug.scoring import (GaussianScorer, fit_gaussian, log_likelihood,
                            select_threshold)
from odeaug.series import derivative, moving_average


def report(number, name, ok, started, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{extra} "
          f"[{time.time() - started:.1f}s]")
    assert ok, f"criterion {number} failed: {name} {extra}"


def synthetic_pair(params, n=400, dt=0.1, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    u = np.empty(n)
    pos, high = 0, True
    while pos < n:
        dur = int(rng.integers(30, 71))
        u[pos:pos + dur] = rng.uniform(0.7, 1.0) if high else rng.uniform(0.1, 0.3)
        pos += dur
        high = not high
    p0, p1, p2 = params
    x0 = (p0 * u[0] + p2) / p1
    x = integrate(OdeParams.single(params, n), x0, u, dt)
    if noise > 0:
        x = x + rng.normal(0.0, noise * (x.max() - x.min()), n)
    return SeriesPair(u, x, dt)


def test_criterion_1_metric_fidelity():
    started = time.time()
    table = [
        (0.41, 0.84, 0.55),
        (0.34, 0.85, 0.49),
        (0.32, 0.82, 0.46),
        (0.52, 0.83, 0.64),
        (0.56, 0.84, 0.67),
    ]
    worst = 0.0
    for p_t, r_t, f_t in table:
        scale = 10_000
        tp = int(round(p_t * r_t * scale))
        fp = int(round(r_t * scale)) - tp
        fn = int(round(p_t * scale)) - tp
        predicted = np.array([True] * (tp + fp) + [False] * (fn + 50))
        actual = np.array([True] * tp + [False] * fp + [True] * fn + [False] * 50)
        _, _, f = prf_metrics(predicted, actual)
        worst = max(worst, abs(f - f_t))
    report(1, "metric fidelity vs reference table", worst <= 0.005, started,
           f"max |dF| = {worst:.4f}")


@pytest.mark.slow
def test_criterion_2_bookkeeping_fidelity(directional_results):
    started = time.time()
    assert 40 + 125 == 165 and 3571 + 13598 == 17169
    rep = directional_results["seed0_report"]
    small = rep.row("S(r)")
    gen = rep.row("ODE(s)")
    both = rep.row("S(r)+ODE(s)")
    ok = (both.n_series == small.n_series + gen.n_series
          and both.n_points == small.n_points + gen.n_points)
    report(2, "combined-regime NS/NP are exact sums", ok, started,
           f"{small.n_series}+{gen.n_series}={both.n_series}, "
           f"{small.n_points}+{gen.n_points}={both.n_points}")


def test_criterion_3_ode_integration():
    started = time.time()

    def max_err(dt):
        n = int(round(10.0 / dt)) + 1
        traj = integrate(OdeParams.single((1.0, 1.0, 0.0), n), 0.0, np.ones(n), dt)
        return float(np.max(np.abs(traj - (1.0 - np.exp(-np.arange(n) * dt)))))

    err = max_err(0.01)
    ratio = err / max_err(0.005)
    ok = err < 1e-6 and 8.0 <= ratio <= 32.0
    report(3, "closed-form integration accuracy and 4th-order convergence",
           ok, started, f"max err {err:.2e}, halving ratio {ratio:.1f}")


def test_criterion_4_fit_recovery():
    started = time.time()
    true = (1.5, 0.8, 0.2)
    passing = 0
    for seed in range(10):
        ok = True
        for noise, tol in ((0.0, 0.05), (0.01, 0.15)):
            pair = synthetic_pair(true, noise=noise, seed=1000 * (1 + int(noise > 0)) + seed)
            rep = fit(pair, FitConfig(seed=seed))
            got = rep.params.windows[0][2]
            rel = max(abs(g - t) / abs(t) for g, t in zip(got, true))
            ok = ok and rel <= tol
        passing += ok
    report(4, "generate-then-fit parameter recovery", passing >= 9, started,
           f"{passing}/10 seeds within 5%/15%")


def test_criterion_5_sgd_oracle_equivalence():
    started = time.time()
    config = FitConfig(seed=3)
    pair = synthetic_pair((1.5, 0.8, 0.2), n=500, seed=7)
    cands = fit_gradient_sgd(pair, (0.05, 0.1, 0.2), config)
    smoothed = moving_average(pair.dependent, config.smooth_window)
    targets = derivative(smoothed, pair.sample_period, 1)
    worst = 0.0
    for cand in cands:
        keep = _retained_indices(smoothed, pair.sample_period,
                                 cand.drop_fraction, config.curvature_max_order)
        a = np.column_stack(
            [pair.control[keep], -smoothed[keep], np.ones(keep.shape[0])]
        )
        theta, *_ = np.linalg.lstsq(a, targets[keep], rcond=None)
        worst = max(worst, float(np.max(np.abs(np.asarray(cand.params) - theta))))
    report(5, "SGD matches normal-equations oracle", worst < 1e-3, started,
           f"max |dP| = {worst:.2e}")


def test_criterion_6_pso_contract():
    started = time.time()
    ok = True
    details = []
    for seed, noise in ((1, 0.0), (2, 0.01), (3, 0.03)):
        pair = synthetic_pair((1.5, 0.8, 0.2), noise=noise, seed=seed)
        cands = fit_gradient_sgd(pair, (0.05, 0.2), FitConfig(seed=seed))
        _, rmse = refine_pso([c.params for c in cands], pair,
                             PsoConfig(seed=seed, iterations=30))
        ok = ok and rmse <= cands[0].rmse + 1e-15
        details.append(f"{rmse:.4g}<={cands[0].rmse:.4g}")
    single = (1.4, 0.75, 0.18)
    params0, _ = refine_pso([single], synthetic_pair((1.5, 0.8, 0.2), seed=4),
                            PsoConfig(iterations=0))
    ok = ok and params0 == single
    report(6, "swarm refinement never worse; 0 iterations is identity",
           ok, started, "; ".join(details))


def test_criterion_7_lstm_gradient_check():
    started = time.time()
    config = PredictorConfig(
        input_channels=("a", "b"), predicted_channels=("b",),
        layer_sizes=(2,), prediction_length=2, seed=3,
    )
    net = init_network(config)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 5, 2))
    targets = rng.normal(size=(1, 5, config.output_dim))
    mask = np.ones_like(targets)
    mask[:, -2:, :] = 0.0
    _, grads = loss_and_gradients(net, x, targets, mask)
    h = 1e-5
    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = loss_and_gradients(net, x, targets, mask)
            p[idx] = orig - h
            lm, _ = loss_and_gradients(net, x, targets, mask)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8)
            worst = max(worst, rel)
            it.iternext()
    report(7, "BPTT gradients match finite differences", worst < 1e-4, started,
           f"worst rel err {worst:.2e} over all parameters")


def test_criterion_8_scorer_correctness():
    started = time.time()
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(60, 3))
    ridge = 1e-6
    scorer = fit_gaussian(mat, ridge=ridge)
    centered = mat - mat.mean(axis=0)
    mle = centered.T @ centered / mat.shape[0]
    moments_ok = (
        float(np.max(np.abs(scorer.mean - mat.mean(axis=0)))) <= 1e-12
        and float(np.max(np.abs(scorer.covariance
                                - (mle + ridge * np.eye(3))))) <= 1e-12
    )

    std1 = GaussianScorer(mean=np.zeros(1), covariance=np.eye(1))
    at_mean = log_likelihood(std1, np.zeros(1))
    loglik_ok = abs(at_mean - (-0.918939)) <= 1e-6 and abs(
        at_mean - (-0.5 * math.log(2 * math.pi))
    ) <= 1e-9

    threshold_ok = True
    for trial in range(100):
        t_rng = np.random.default_rng(trial)
        labels = t_rng.random(1000) < 0.15
        scores = t_rng.normal(size=1000) - 1.5 * labels
        tau, f = select_threshold(scores, labels)
        uniq = np.unique(scores)
        cands = np.concatenate(([-np.inf], 0.5 * (uniq[:-1] + uniq[1:]), [np.inf]))
        flagged = scores[None, :] < cands[:, None]
        tp = (flagged & labels[None, :]).sum(axis=1)
        fp = (flagged & ~labels[None, :]).sum(axis=1)
        fn = labels.sum() - tp
        denom = 2 * tp + fp + fn
        f_all = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
        if not math.isclose(f, float(f_all.max()), abs_tol=1e-12):
            threshold_ok = False
            break
    ok = moments_ok and loglik_ok and threshold_ok
    report(8, "Gaussian MLE, log-likelihood closed form, brute-force threshold",
           ok, started,
           f"moments {moments_ok}, loglik {loglik_ok}, threshold {threshold_ok}")


DIRECTIONAL_REGIMES = ("S(r)", "ODE(s)", "S(r)+ODE(s)")

# F of each directional regime for seeds 0..9, taken with the machine that
# tests/test_pipeline_digests.py names.  Each F is a ratio of counts, so
# the table is compared exactly; a change that moves it on purpose
# re-pins it and reports the table before and after.
DIRECTIONAL_TABLE = [
    (0.6098265895953757, 0.6190476190476192, 0.6398763523956723),
    (0.5882352941176472, 0.6071942446043165, 0.6183574879227053),
    (0.5575959933222037, 0.5415986949429037, 0.5685131195335277),
    (0.5178236397748593, 0.5038363171355499, 0.517193947730399),
    (0.5759717314487631, 0.6010362694300518, 0.6031746031746031),
    (0.5246338215712383, 0.5993589743589743, 0.597623089983022),
    (0.5509138381201045, 0.576271186440678, 0.6175548589341693),
    (0.548440065681445, 0.583196046128501, 0.5674255691768827),
    (0.523972602739726, 0.6353887399463808, 0.6098654708520179),
    (0.5510752688172043, 0.581267217630854, 0.5843373493975904),
]
DIRECTIONAL_WINS, DIRECTIONAL_MEAN_DELTA = 9, 0.03754330039120226


@pytest.fixture(scope="module")
def directional_results():
    """10-seed directional replication; shared by criteria 2, 9, and 10."""
    results = {"wins": 0, "deltas": [], "f_values": []}
    for seed in range(10):
        config = BenchmarkConfig(seed=seed)
        bench = gen_benchmark(config)
        rep = run_experiment(bench, DIRECTIONAL_REGIMES)
        f_small = rep.row("S(r)").f_score
        f_aug = rep.row("S(r)+ODE(s)").f_score
        results["wins"] += f_aug >= f_small
        results["deltas"].append(f_aug - f_small)
        results["f_values"].append(tuple(row.f_score for row in rep.rows))
        if seed == 0:
            results["seed0_report"] = rep
            results["seed0_curve"] = augmentation_curve(bench, [0.0, 1.0])
    return results


@pytest.mark.slow
def test_criterion_9_directional_replication(directional_results):
    started = time.time()
    wins = directional_results["wins"]
    mean_delta = float(np.mean(directional_results["deltas"]))
    ok = wins >= 7 and mean_delta > 0.0
    report(9, "augmentation improves F on the desk-scale benchmark",
           ok, started, f"wins {wins}/10, mean dF {mean_delta:+.4f}")


@pytest.mark.slow
def test_directional_table_is_pinned(directional_results):
    table = directional_results["f_values"]
    print("\nseed  " + "  ".join(f"{name:>11}" for name in DIRECTIONAL_REGIMES))
    for seed, row in enumerate(table):
        print(f"{seed:>4}  " + "  ".join(f"{f:11.6f}" for f in row))
    wins = directional_results["wins"]
    mean_delta = float(np.mean(directional_results["deltas"]))
    print(f"wins {wins}/10, mean dF {mean_delta!r}")
    assert table == DIRECTIONAL_TABLE
    assert (wins, mean_delta) == (DIRECTIONAL_WINS, DIRECTIONAL_MEAN_DELTA)


@pytest.mark.slow
def test_criterion_10_curve_consistency(directional_results):
    started = time.time()
    rep = directional_results["seed0_report"]
    curve = directional_results["seed0_curve"]
    ok = (curve[0][1] == rep.row("S(r)").f_score
          and curve[1][1] == rep.row("S(r)+ODE(s)").f_score)
    report(10, "curve endpoints equal experiment rows bit-for-bit", ok, started,
           f"F(0)={curve[0][1]:.6f}, F(1)={curve[1][1]:.6f}")


def test_criterion_11_cli_determinism(tmp_path):
    started = time.time()
    import json
    import os

    from odeaug.cli import main

    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps({
        "series_length": 200, "n_large": 3, "n_small": 3, "n_generated": 3,
        "n_val_normal": 2, "n_val_anomalous": 3, "n_test": 3,
        "anomaly_duration": 8,
        "lstm": {"layer_sizes": [6], "epochs": 3, "patience": 100},
        "fit": {"sgd": {"epochs": 60}},
    }))

    def tree(root):
        out = {}
        for base, _dirs, files in os.walk(root):
            for name in sorted(files):
                full = os.path.join(base, name)
                out[os.path.relpath(full, root)] = open(full, "rb").read()
        return out

    ok = True
    for command, sub in (
        (["gen-data", "--config", str(config_path), "--seed", "7"], "gen"),
        (["experiment", "--config", str(config_path), "--seed", "7",
          "--regimes", "S(r),S(r)+ODE(s)"], "exp"),
    ):
        a = tmp_path / f"{sub}_a"
        b = tmp_path / f"{sub}_b"
        assert main(command + ["--out", str(a)]) == 0
        assert main(command + ["--out", str(b)]) == 0
        ok = ok and tree(a) == tree(b)
    report(11, "gen-data and experiment re-runs are byte-identical", ok, started)
