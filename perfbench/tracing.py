"""Spans around the program's public functions, recorded from outside.

Each wrapped function is replaced where its caller looks it up: the name
that ``odeaug.cli``, ``odeaug.experiment``, ``odeaug.scoring``,
``odeaug.ode`` (and the few modules that call ``integrate`` or
``read_csv`` internally) bind at import time.  A span is (layer, start,
end, parent, work, phase); spans stay in memory and are reduced to
per-layer metrics when the run ends.
"""

import time

import numpy as np


def _len_arg(index):
    return lambda args, kwargs, result: len(args[index])


def _len_result(args, kwargs, result):
    return len(result)


def _rk4_steps(args, kwargs, result):
    return len(args[2]) - 1


def _threshold_candidates(args, kwargs, result):
    # midpoints between sorted unique scores plus the two infinite sentinels
    return int(np.unique(np.asarray(args[0], dtype=float)).size) + 1


def _train_work(args, kwargs, result):
    log = result[1]
    points = sum(len(s) for s in getattr(args[0], "series", args[0]))
    return {
        "epochs": len(log.train_losses),
        "steps": len(log.train_losses) * points,
        "useful": (log.best_epoch + 1) / len(log.train_losses),
    }


def _one(args, kwargs, result):
    return 1


# (module, attribute, layer, work function)
_WRAPPED = [
    ("odeaug.cli", "gen_benchmark", "benchmark.gen", _one),
    ("odeaug.benchmark", "inject", "anomalies.inject", _one),
    ("odeaug.cli", "read_csv", "series.read", _len_result),
    ("odeaug.series", "read_csv", "series.read", _len_result),
    ("odeaug.cli", "write_csv", "series.write", _len_arg(0)),
    ("odeaug.cli", "fit", "ode.fit", _one),
    ("odeaug.experiment", "fit", "ode.fit", _one),
    ("odeaug.ode", "fit_gradient_sgd", "ode.gradient", _one),
    ("odeaug.ode", "refine_pso", "ode.pso", _one),
    ("odeaug.ode", "integrate", "ode.integrate", _rk4_steps),
    ("odeaug.augment", "integrate", "ode.integrate", _rk4_steps),
    ("odeaug.benchmark", "integrate", "ode.integrate", _rk4_steps),
    ("odeaug.anomalies", "integrate", "ode.integrate", _rk4_steps),
    ("odeaug.cli", "segment_control", "control.segment", _one),
    ("odeaug.experiment", "segment_control", "control.segment", _one),
    ("odeaug.benchmark", "segment_control", "control.segment", _one),
    ("odeaug.cli", "build_profile", "control.profile", _one),
    ("odeaug.experiment", "build_profile", "control.profile", _one),
    ("odeaug.cli", "generate_with_record", "augment.generate", _one),
    ("odeaug.experiment", "generate_series_pair", "augment.generate", _one),
    ("odeaug.cli", "train", "lstm.train", _train_work),
    ("odeaug.experiment", "train", "lstm.train", _train_work),
    ("odeaug.cli", "predict", "lstm.predict", _len_arg(2)),
    ("odeaug.experiment", "predict", "lstm.predict", _len_arg(2)),
    ("odeaug.scoring", "predict", "lstm.predict", _len_arg(2)),
    ("odeaug.cli", "error_vectors", "scoring.error_vectors", _len_arg(1)),
    ("odeaug.experiment", "error_vectors", "scoring.error_vectors", _len_arg(1)),
    ("odeaug.scoring", "error_vectors", "scoring.error_vectors", _len_arg(1)),
    ("odeaug.cli", "score_series", "scoring.score", _len_arg(3)),
    ("odeaug.experiment", "score_series", "scoring.score", _len_arg(3)),
    ("odeaug.scoring", "score_series", "scoring.score", _len_arg(3)),
    ("odeaug.cli", "select_threshold", "scoring.threshold", _threshold_candidates),
    ("odeaug.experiment", "select_threshold", "scoring.threshold",
     _threshold_candidates),
    ("odeaug.cli", "run_experiment", "experiment.run", _one),
]


class Tracer:
    """In-memory span recorder.

    ``phase`` tags new spans as set-up or timed; while ``active`` is
    false the wrappers call straight through and record nothing.
    """

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, work, phase]
        self._stack = []
        self._saved = []
        self.phase = "setup"
        self.active = True

    def span(self, layer, fn, args=(), kwargs=None, work=_one):
        kwargs = kwargs or {}
        record = [layer, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, None, self.phase]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        record[4] = work(args, kwargs, result)
        return result

    def install(self):
        import importlib

        for module_name, attr, layer, work in _WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(layer, original, work))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrapper(self, layer, fn, work):
        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.span(layer, fn, args, kwargs, work)

        wrapped.__wrapped__ = fn
        return wrapped


class _Layer:
    """Sums over one layer's spans in one phase."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.work = 0
        self.extra = {}


def _reduce(spans):
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _work, _phase in spans:
        if parent is not None:
            child_time[parent] += end - start
    layers = {}
    for i, (layer, start, end, _parent, work, phase) in enumerate(spans):
        agg = layers.setdefault((phase, layer), _Layer())
        agg.calls += 1
        agg.seconds += end - start
        agg.self_seconds += end - start - child_time[i]
        if isinstance(work, dict):
            for key, value in work.items():
                agg.extra[key] = agg.extra.get(key, 0) + value
        else:
            agg.work += work
    return layers


PER_LAYER = [
    # name, unit
    ("benchmark.gen_s", "s"),
    ("anomalies.inject_ms_per_call", "ms"),
    ("series.read_us_per_row", "us"),
    ("series.write_us_per_row", "us"),
    ("series.rows", "count"),
    ("ode.fit_s_per_pair", "s"),
    ("ode.gradient_s_per_pair", "s"),
    ("ode.pso_s_per_window", "s"),
    ("ode.pso_windows", "count"),
    ("ode.integrate_us_per_step", "us"),
    ("ode.integrate_steps", "count"),
    ("ode.integrate_calls", "count"),
    ("control.segment_ms_per_series", "ms"),
    ("control.profile_ms", "ms"),
    ("augment.generate_ms_per_pair", "ms"),
    ("lstm.train_s", "s"),
    ("lstm.epoch_s", "s"),
    ("lstm.train_us_per_step", "us"),
    ("lstm.train_steps", "count"),
    ("lstm.epochs_run", "count"),
    ("lstm.useful_epoch_ratio", "ratio"),
    ("lstm.predict_us_per_point", "us"),
    ("lstm.predict_points", "count"),
    ("scoring.error_vectors_us_per_point", "us"),
    ("scoring.score_self_us_per_point", "us"),
    ("scoring.threshold_s", "s"),
    ("scoring.threshold_candidates", "count"),
    ("experiment.self_s", "s"),
    ("cli.self_s", "s"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_setups, n_rounds):
    """Per-layer figures from the recorded spans.

    A layer is read from the timed rounds when it runs there, and from
    the set-ups otherwise (training and injection on ``detect`` run only
    in set-up).  Totals and counts are per round (or per set-up); the
    ``*_per_*`` figures are ratios of summed time to summed work.  A
    layer that never runs reads 0.
    """
    layers = _reduce(tracer.spans)
    empty = _Layer()

    def get(layer):
        timed = layers.get(("timed", layer))
        if timed is not None:
            return timed, n_rounds
        setup = layers.get(("setup", layer))
        if setup is not None:
            return setup, n_setups
        return empty, 1

    gen, gen_n = get("benchmark.gen")
    inject, _ = get("anomalies.inject")
    read, read_n = get("series.read")
    write, write_n = get("series.write")
    fit, _ = get("ode.fit")
    grad, _ = get("ode.gradient")
    pso, pso_n = get("ode.pso")
    integ, integ_n = get("ode.integrate")
    seg, _ = get("control.segment")
    prof, _ = get("control.profile")
    gen_pair, _ = get("augment.generate")
    train, train_n = get("lstm.train")
    pred, pred_n = get("lstm.predict")
    errv, _ = get("scoring.error_vectors")
    score, _ = get("scoring.score")
    thr, thr_n = get("scoring.threshold")
    exp, exp_n = get("experiment.run")
    cli, cli_n = get("cli")
    epochs = train.extra.get("epochs", 0)
    steps = train.extra.get("steps", 0)
    values = {
        "benchmark.gen_s": gen.seconds / gen_n,
        "anomalies.inject_ms_per_call": 1e3 * _ratio(inject.seconds, inject.calls),
        "series.read_us_per_row": 1e6 * _ratio(read.seconds, read.work),
        "series.write_us_per_row": 1e6 * _ratio(write.seconds, write.work),
        "series.rows": read.work / read_n + write.work / write_n,
        "ode.fit_s_per_pair": _ratio(fit.seconds, fit.calls),
        "ode.gradient_s_per_pair": _ratio(grad.seconds, fit.calls),
        "ode.pso_s_per_window": _ratio(pso.seconds, pso.calls),
        "ode.pso_windows": pso.calls / pso_n,
        "ode.integrate_us_per_step": 1e6 * _ratio(integ.seconds, integ.work),
        "ode.integrate_steps": integ.work / integ_n,
        "ode.integrate_calls": integ.calls / integ_n,
        "control.segment_ms_per_series": 1e3 * _ratio(seg.seconds, seg.calls),
        "control.profile_ms": 1e3 * _ratio(prof.seconds, prof.calls),
        "augment.generate_ms_per_pair": 1e3 * _ratio(gen_pair.seconds, gen_pair.calls),
        "lstm.train_s": train.seconds / train_n,
        "lstm.epoch_s": _ratio(train.seconds, epochs),
        "lstm.train_us_per_step": 1e6 * _ratio(train.seconds, steps),
        "lstm.train_steps": steps / train_n,
        "lstm.epochs_run": epochs / train_n,
        "lstm.useful_epoch_ratio": _ratio(train.extra.get("useful", 0.0), train.calls),
        "lstm.predict_us_per_point": 1e6 * _ratio(pred.seconds, pred.work),
        "lstm.predict_points": pred.work / pred_n,
        "scoring.error_vectors_us_per_point": 1e6 * _ratio(errv.seconds, errv.work),
        "scoring.score_self_us_per_point": 1e6 * _ratio(score.self_seconds, score.work),
        "scoring.threshold_s": thr.seconds / thr_n,
        "scoring.threshold_candidates": thr.work / thr_n,
        "experiment.self_s": exp.self_seconds / exp_n,
        "cli.self_s": cli.self_seconds / cli_n,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
