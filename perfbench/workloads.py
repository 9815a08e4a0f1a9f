"""The three workloads: what each sets up, runs per round, and checks.

A workload's round is a fixed list of ``odeaug`` command lines.  Every
round of one run repeats the same commands on the same inputs, so the
outputs, and the checks on them, are the same in every round.
"""

import glob
import json
import os

import numpy as np

import oracles

DT = 0.1

# Sizes are cut down from the default BenchmarkConfig so that one
# five-regime experiment takes seconds, not a minute; patience equals the
# epoch budget so every seed trains the same number of epochs and the
# wall time measures the code, not where early stopping happened to fire.
EXPERIMENT_CONFIG = {
    "series_length": 300,
    "n_large": 10,
    "n_small": 8,
    "n_generated": 12,
    "lstm": {"epochs": 12, "patience": 12},
    "fit": {"sgd": {"epochs": 200}},
}

# detect: a test set eight times the experiment's, one small network.
DETECT_DATA_CONFIG = {"series_length": 300, "n_large": 1, "n_test": 96}
DETECT_TRAIN_CONFIG = {"layer_sizes": [16], "epochs": 10, "patience": 10}

# augment: observed pairs drawn from known linear1 parameters.
AUGMENT_OBSERVED = 4
AUGMENT_OBSERVED_LENGTH = 200
AUGMENT_GENERATED = 24
AUGMENT_GENERATED_LENGTH = 2000
AUGMENT_NOISE = 0.01
AUGMENT_PARAM_RANGES = ((1.2, 2.0), (0.5, 1.0), (0.2, 0.4))  # gain, decay, offset
AUGMENT_DURATIONS = (20, 60)
AUGMENT_LOW = (0.1, 0.3)
AUGMENT_HIGH = (0.7, 1.0)
FIT_TOLERANCE = 0.15


def derive_seed(seed, tag):
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _report_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = {}
    for line in lines[1:]:
        name, ns, np_, p, r, f = line.split(",")
        rows[name] = (int(ns), int(np_), float(p), float(r), float(f))
    return rows


def _test_labels(test_dir):
    labels = []
    for path in sorted(glob.glob(os.path.join(test_dir, "*.csv"))):
        header, table = oracles.read_table(path)
        labels.append(table[:, header.index("label")] != 0)
    return labels


class Experiment:
    """``odeaug experiment`` over all five regimes."""

    name = "experiment"

    def setup(self, workdir, seed, invoke):
        config = dict(EXPERIMENT_CONFIG, seed=derive_seed(seed, 1))
        config_path = os.path.join(workdir, "config.json")
        _write_json(config_path, config)
        data = os.path.join(workdir, "data")
        invoke(["gen-data", "--config", config_path, "--out", data])
        return {"config": config, "config_path": config_path,
                "test_labels": _test_labels(os.path.join(data, "test"))}

    def round_ops(self, state, out):
        return [["experiment", "--config", state["config_path"],
                 "--out", os.path.join(out, "report")]]

    def check(self, state, out):
        report = os.path.join(out, "report")
        rows = _report_rows(os.path.join(report, "report.csv"))
        config = state["config"]
        problems = oracles.manifest_mismatches(report)
        length = config["series_length"]
        expected_ns = {"L(r)": config["n_large"], "S(r)": config["n_small"],
                       "ODE(s)": config["n_generated"]}
        expected_ns["S(r)+ODE(s)"] = expected_ns["S(r)"] + expected_ns["ODE(s)"]
        expected_ns["L(r)+ODE(s)"] = expected_ns["L(r)"] + expected_ns["ODE(s)"]
        if set(rows) != set(expected_ns):
            problems.append(f"report rows {sorted(rows)}")
            return {}, problems
        for combined, parts in (("S(r)+ODE(s)", ("S(r)", "ODE(s)")),
                                ("L(r)+ODE(s)", ("L(r)", "ODE(s)"))):
            for col in (0, 1):
                if rows[combined][col] != sum(rows[p][col] for p in parts):
                    problems.append(f"{combined}: NS/NP is not the sum of its parts")
        baseline = oracles.f_flag_all(np.concatenate(state["test_labels"]))
        for name, (ns, npts, p, r, f) in rows.items():
            if ns != expected_ns[name] or npts != ns * length:
                problems.append(f"{name}: NS={ns} NP={npts}")
            f_ref = 2 * p * r / (p + r) if p + r else 0.0
            # the report prints six decimals; F's rounding error is below 3e-6
            if abs(f - f_ref) > 3e-6:
                problems.append(f"{name}: F={f} but 2PR/(P+R)={f_ref}")
            if not f > baseline:
                problems.append(f"{name}: F={f} does not beat flag-all F={baseline}")
        quality = {"experiment.f_small": (rows["S(r)"][4], "F"),
                   "experiment.f_augmented": (rows["S(r)+ODE(s)"][4], "F")}
        return quality, problems


class Augment:
    """``fit-ode --pso`` per observed pair, ``synth-control``, ``augment``."""

    name = "augment"

    def setup(self, workdir, seed, invoke):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
        observed = os.path.join(workdir, "observed")
        os.makedirs(observed)
        truths, levels = [], {"low": [], "high": []}
        for i in range(AUGMENT_OBSERVED):
            params = tuple(float(rng.uniform(*r)) for r in AUGMENT_PARAM_RANGES)
            control, drawn = oracles.two_state_control(
                rng, AUGMENT_OBSERVED_LENGTH, AUGMENT_DURATIONS,
                AUGMENT_LOW, AUGMENT_HIGH)
            x0 = (params[0] * control[0] + params[2]) / params[1]
            clean = oracles.linear1_closed_form(params, control, x0, DT)
            noise = AUGMENT_NOISE * float(clean.max() - clean.min())
            response = clean + rng.normal(0.0, noise, clean.shape[0])
            with open(os.path.join(observed, f"obs_{i:02d}.csv"), "w") as fh:
                fh.write("t,control,response\n")
                for k in range(control.shape[0]):
                    fh.write(f"{k * DT!r},{float(control[k])!r},"
                             f"{float(response[k])!r}\n")
            truths.append(params)
            for state in levels:
                levels[state].extend(drawn[state])
        return {"observed": observed, "truths": truths, "levels": levels,
                "seed": seed}

    def _models(self, out):
        return [os.path.join(out, "models", f"m_{i:02d}.json")
                for i in range(AUGMENT_OBSERVED)]

    def round_ops(self, state, out):
        ops = []
        for i, model in enumerate(self._models(out)):
            ops.append(["fit-ode", "--data",
                        os.path.join(state["observed"], f"obs_{i:02d}.csv"),
                        "--control", "control", "--dependent", "response", "--pso",
                        "--seed", str(derive_seed(state["seed"], 10 + i)),
                        "--out", model])
        profile = os.path.join(out, "profile.json")
        ops.append(["synth-control", "--data", state["observed"],
                    "--channel", "control", "--out", profile])
        ops.append(["augment", "--profile", profile, "--models", *self._models(out),
                    "--count", str(AUGMENT_GENERATED),
                    "--length", str(AUGMENT_GENERATED_LENGTH),
                    "--seed", str(derive_seed(state["seed"], 3)),
                    "--out", os.path.join(out, "generated")])
        return ops

    def check(self, state, out):
        problems = []
        models = self._models(out)
        generated = os.path.join(out, "generated")
        for path in models + [os.path.join(out, "profile.json"), generated]:
            problems.extend(oracles.manifest_mismatches(path))

        docs = [_read_json(m) for m in models]
        rel_errors, rmses = [], []
        for i, (doc, truth) in enumerate(zip(docs, state["truths"])):
            fitted = doc["windows"][0]["params"]
            rel = [abs(f - t) / abs(t) for f, t in zip(fitted, truth)]
            if max(rel) > FIT_TOLERANCE:
                problems.append(f"obs_{i:02d}: fitted {fitted} vs drawn {truth}")
            rel_errors.append(float(np.mean(rel)))
            rmses.append(doc["rmse"])

        low, high = state["levels"]["low"], state["levels"]["high"]
        ranges = {"low": (min(low), max(low)), "high": (min(high), max(high))}
        records = _read_json(os.path.join(generated, "manifest.json"))["generated"]
        if len(records) != AUGMENT_GENERATED:
            problems.append(f"{len(records)} generated pairs")
        for rec in records:
            header, table = oracles.read_table(
                os.path.join(generated, f"generated_{rec['index']:03d}.csv"))
            control = table[:, header.index("control")]
            dependent = table[:, header.index("response")]
            problems.extend(_control_problems(rec["index"], control, ranges))
            donor = docs[models.index(rec["donor_model"])]
            exact = oracles.linear1_closed_form(
                donor["windows"][0]["params"], control, donor["initial_value"], DT)
            err = float(np.max(np.abs(dependent - exact)))
            # RK4's global error at p1*dt <= 0.1 is orders below this
            if err > 1e-6 * (1.0 + float(np.max(np.abs(exact)))):
                problems.append(f"generated_{rec['index']:03d}: |RK4 - exact| = {err}")
        quality = {"ode.fit_rmse": (float(np.mean(rmses)), "response"),
                   "ode.param_rel_error": (float(np.mean(rel_errors)), "ratio")}
        return quality, problems


def _control_problems(index, control, ranges, tol=1e-9):
    """A generated control must alternate between levels of the two ranges."""
    change = np.flatnonzero(np.diff(control) != 0) + 1
    levels = control[np.concatenate(([0], change))]
    states = []
    for level in levels:
        inside = [s for s, (lo, hi) in ranges.items() if lo - tol <= level <= hi + tol]
        if len(inside) != 1:
            return [f"generated_{index:03d}: control level {level} outside "
                    "the observed ranges"]
        states.append(inside[0])
    if any(a == b for a, b in zip(states, states[1:])):
        return [f"generated_{index:03d}: control does not alternate states"]
    return []


class Detect:
    """``threshold``, ``detect`` and ``evaluate`` with a network trained in set-up."""

    name = "detect"

    def setup(self, workdir, seed, invoke):
        data_config = os.path.join(workdir, "data_config.json")
        _write_json(data_config, dict(DETECT_DATA_CONFIG, seed=derive_seed(seed, 4)))
        train_config = os.path.join(workdir, "train_config.json")
        _write_json(train_config, DETECT_TRAIN_CONFIG)
        data = os.path.join(workdir, "data")
        net = os.path.join(workdir, "network.json")
        invoke(["gen-data", "--config", data_config, "--out", data])
        invoke(["train", "--data", os.path.join(data, "small"),
                "--val-normal", os.path.join(data, "val_normal"),
                "--config", train_config, "--predicted", "response",
                "--seed", str(derive_seed(seed, 5)), "--out", net])
        test = os.path.join(data, "test")
        return {"data": data, "net": net, "test": test,
                "test_labels": _test_labels(test)}

    def round_ops(self, state, out):
        scorer = os.path.join(out, "scorer.json")
        net, data = state["net"], state["data"]
        return [
            ["threshold", "--net", net, "--normal", os.path.join(data, "val_normal"),
             "--labeled", os.path.join(data, "val_anomalous"), "--out", scorer],
            ["detect", "--net", net, "--scorer", scorer, "--data", state["test"],
             "--out", os.path.join(out, "detections")],
            ["evaluate", "--net", net, "--scorer", scorer, "--data", state["test"],
             "--format", "csv", "--out", os.path.join(out, "eval.csv")],
        ]

    def check(self, state, out):
        scorer_path = os.path.join(out, "scorer.json")
        detections = os.path.join(out, "detections")
        problems = []
        for path in (state["net"], scorer_path, detections,
                     os.path.join(out, "eval.csv")):
            problems.extend(oracles.manifest_mismatches(path))
        scorer = _read_json(scorer_path)
        threshold = scorer["threshold"]
        horizon = _read_json(state["net"])["config"]["prediction_length"]
        peak = oracles.gaussian_peak_log_density(scorer["covariance"])
        names = sorted(f for f in os.listdir(state["test"]) if f.endswith(".csv"))
        all_flags = []
        for name, labels in zip(names, state["test_labels"]):
            header, table = oracles.read_table(
                os.path.join(detections, name.replace(".csv", ".detections.csv")))
            scores = table[:, header.index("score")]
            flags = table[:, header.index("flag")] != 0
            if scores.shape != labels.shape:
                problems.append(f"{name}: {scores.shape[0]} detections")
                continue
            if not (np.all(scores[:horizon] == np.inf) and not flags[:horizon].any()):
                problems.append(f"{name}: warm-up points are not +inf and unflagged")
            if not np.array_equal(flags, scores < threshold):
                problems.append(f"{name}: flags differ from score < threshold")
            finite = scores[np.isfinite(scores)]
            if finite.size and finite.max() > peak + 1e-9 * max(1.0, abs(peak)):
                problems.append(f"{name}: score {finite.max()} above the "
                                f"density's peak {peak}")
            all_flags.append(flags)
        if problems:
            return {}, problems
        p, r, f = oracles.prf_counts(np.concatenate(all_flags),
                                     np.concatenate(state["test_labels"]))
        row = _report_rows(os.path.join(out, "eval.csv"))["eval"]
        if row[:2] != (len(names), sum(len(l) for l in state["test_labels"])):
            problems.append(f"evaluate counts {row[:2]}")
        for got, want, label in zip(row[2:], (p, r, f), "PRF"):
            if abs(got - want) > 5.1e-7:  # six printed decimals
                problems.append(f"evaluate {label}={got}, recounted {want}")
        return {"detect.f": (f, "F")}, problems


# Behaviour figures, deterministic per seed; each exists on one workload
# and reads 0 on the others.
QUALITY_METRICS = [
    ("experiment.f_small", "F"),
    ("experiment.f_augmented", "F"),
    ("detect.f", "F"),
    ("ode.fit_rmse", "response"),
    ("ode.param_rel_error", "ratio"),
]

WORKLOADS = {w.name: w for w in (Experiment(), Augment(), Detect())}
