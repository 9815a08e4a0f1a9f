"""Command-line pipeline: file-based stages wired over the library.

Every artifact-producing command writes its outputs plus a manifest
recording the seed, a config echo, and content digests of inputs and
outputs, so re-runs with identical seeds are byte-identical and
verifiable; a failed run leaves the previous output as it was.  Exit
codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict

from . import __version__
from .anomalies import AnomalyKind, AnomalySpec, inject
from .augment import (AugmentationPlan, donor_from_dict, fitted_pair_from_dict,
                      fitted_pair_to_dict, FittedPair, generate_with_record)
from .benchmark import BenchmarkConfig, config_to_dict, gen_benchmark
from .control import (AUTO, build_profile, pair_features, profile_from_dict,
                      profile_to_dict, segment_control)
from .errors import GenerationError, PlacementError
from .experiment import (REGIMES, augmentation_curve, calibrate_scorer,
                         curve_to_csv_text, detection_metrics, run_experiment)
# ``predict``, ``score_series``, ``error_vectors`` and ``select_threshold``
# are not called here; perfbench/tracing.py wraps them by this module's name.
from .lstm import (PredictorConfig, network_from_dict,  # noqa: F401
                   network_to_dict, predict, train)
from .metrics import MetricsReport, RegimeRow
from .ode import STRUCTURE_ID, FitConfig, SeriesPair, fit
from .scoring import (error_vectors, score_many, score_series,  # noqa: F401
                      scorer_from_dict, scorer_to_dict, select_threshold)
from .series import read_csv, write_csv

# every exception class in ``errors`` derives from one of these
_RUNTIME_ERRORS = (ValueError, TypeError, OSError, KeyError, RuntimeError)
# name prefix of the directory an output is staged in beside ``--out``
STAGE_PREFIX = ".odeaug-stage-"


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _digest_tree(path):
    """Digests of one file, or of every non-manifest file under a directory."""
    if os.path.isfile(path):
        return {os.path.basename(path): _sha256(path)}
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in sorted(files):
            if name == "manifest.json" or name.endswith(".manifest.json"):
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, path)
            out[rel] = _sha256(full)
    return dict(sorted(out.items()))


def _check_out(args):
    """Refuse ``--out`` before any work: a path of the wrong kind, or an
    existing output without ``--force`` (an empty directory is accepted)."""
    path = args.out
    if path is None:
        return
    if os.path.isfile(path) if args.out_dir else os.path.isdir(path):
        kind = "an existing file" if args.out_dir else "a directory"
        raise ValueError(f"output path {path} is {kind}")
    if (not args.force and os.path.exists(path)
            and (not args.out_dir or os.listdir(path))):
        raise ValueError(f"output {path} exists (use --force)")


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_doc(path, reader):
    """The JSON object at ``path``, passed through ``reader``.

    Malformed JSON, a document that is not an object, a key it lacks and
    a value the reader rejects are reported with the path.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("a document must be a JSON object")
        return reader(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _publish(args, seed, config_echo, inputs, write):
    """Digest the inputs, then let ``write(path)`` write the output (into
    a directory made for it, for a directory command) and return extra
    manifest entries, in a staging directory beside ``--out``.  The output
    and its manifest then replace the old ones; a failure leaves them."""
    doc = {"version": 1, "tool": f"odeaug {__version__}",
           "command": args.command_name, "seed": seed, "config": config_echo,
           "inputs": {p: _digest_tree(p) for p in inputs}}
    out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    stage = tempfile.mkdtemp(prefix=STAGE_PREFIX, dir=os.path.dirname(out))
    try:
        # the staged output keeps its final name: a file's digest is
        # recorded under its basename
        staged = os.path.join(stage, os.path.basename(out))
        if args.out_dir:
            os.mkdir(staged)
        extra = write(staged) or {}
        doc.update(extra, outputs=_digest_tree(staged))
        manifest = (os.path.join(staged, "manifest.json") if args.out_dir
                    else staged + ".manifest.json")
        _write_json(manifest, doc)
        if os.path.isdir(out):
            os.replace(out, staged + ".old")
        os.replace(staged, out)
        if not args.out_dir:
            os.replace(manifest, out + ".manifest.json")
    finally:
        shutil.rmtree(stage)


def _csv_paths(path):
    """``path`` itself, or every ``*.csv`` under it (sorted) if a directory."""
    if not os.path.isdir(path):
        return [path]
    return [os.path.join(path, f) for f in sorted(os.listdir(path))
            if f.endswith(".csv")]


def _load_series_any(path, channels=(), labeled=False):
    series_list = [read_csv(p, channels, labeled) for p in _csv_paths(path)]
    if not series_list:
        raise ValueError(f"no CSV files under {path}")
    return series_list


def _config(args, cls, defaults=None, overrides=None):
    """The ``cls`` built from ``--config`` (``{}`` without one) under
    ``defaults``, ``overrides`` and ``--seed``; the document used; the
    manifest's inputs.  A bad document is reported with its path."""
    def build(doc):
        doc = {**(defaults or {}), **doc, **(overrides or {})}
        if args.seed is not None:
            doc["seed"] = args.seed
        return cls(**doc), doc

    if not args.config:
        return (*build({}), [])
    return (*_read_doc(args.config, build), [args.config])


def _read_network(doc):
    net, config = network_from_dict(doc)
    if config.norm_mean is None or config.norm_std is None:
        raise ValueError("network has no normalization statistics; train it")
    return net, config


def _load_detector(args):
    """The network, its config and the thresholded scorer of ``--net``
    and ``--scorer``."""
    net, config = _read_doc(args.net, _read_network)
    scorer = _read_doc(args.scorer, scorer_from_dict)
    if scorer.threshold is None:
        raise ValueError("scorer has no threshold; run the threshold command")
    return net, config, scorer


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    config, _, inputs = _config(args, BenchmarkConfig)
    bench = gen_benchmark(config)

    def write(out):
        for name in ("large", "small", "val_normal", "val_anomalous", "test"):
            sub = os.path.join(out, name)
            os.mkdir(sub)
            for i, series in enumerate(getattr(bench, name)):
                write_csv(series, os.path.join(sub, f"series_{i:03d}.csv"))

    _publish(args, config.seed, config_to_dict(config), inputs, write)
    return 0


def cmd_fit_ode(args):
    series = read_csv(args.data, (args.control, args.dependent))
    config, fit_doc, inputs = _config(
        args, FitConfig, overrides={"use_pso": True} if args.pso else None)
    pair = SeriesPair.from_series(series, args.control, args.dependent)
    report = fit(pair, config)
    seg = segment_control(series, args.control, AUTO, min_duration=2)
    doc = fitted_pair_to_dict(
        FittedPair(pair_features(seg), report.params, float(pair.dependent[0])),
        rmse=report.rmse, dropped_fraction=report.dropped_fraction,
        pso_used=report.pso_used, stability_notes=report.notes,
        sample_period=series.sample_period,
        channels={"control": args.control, "dependent": args.dependent},
        seed=config.seed)
    _publish(args, config.seed, {"fit": fit_doc, "structure": STRUCTURE_ID},
             [args.data] + inputs, lambda out: _write_json(out, doc))
    return 0


def cmd_synth_control(args):
    threshold = AUTO if args.threshold is None else args.threshold
    segmentations = [segment_control(s, args.channel, threshold,
                                     min_duration=args.min_duration)
                     for s in _load_series_any(args.data, (args.channel,))]
    doc = profile_to_dict(build_profile(segmentations, bins=args.bins))
    _publish(args, None,
             {"channel": args.channel, "bins": args.bins,
              "min_duration": args.min_duration, "threshold": args.threshold},
             [args.data], lambda out: _write_json(out, doc))
    return 0


def cmd_augment(args):
    profile = _read_doc(args.profile, profile_from_dict)
    donors = [_read_doc(path, donor_from_dict) for path in args.models]
    periods = {period for _, period, _ in donors}
    if len(periods) != 1:
        raise ValueError("donor models must share one sample period")
    plan = AugmentationPlan(
        profile=profile,
        fitted=[pair for pair, _, _ in donors],
        count=args.count,
        length=args.length,
        seed=args.seed,
        sample_period=periods.pop(),
        channel_names=donors[0][2],
    )

    def write(out):
        records = []
        for k in range(plan.count):
            try:
                series, record = generate_with_record(plan, k)
            except GenerationError as exc:
                raise RuntimeError(
                    f"{args.models[exc.donor_index]}: {exc}") from None
            write_csv(series, os.path.join(out, f"generated_{k:03d}.csv"))
            records.append({**asdict(record),
                            "donor_model": args.models[record.donor_index]})
        return {"generated": records}

    _publish(args, args.seed, {"count": args.count, "length": args.length},
             [args.profile] + list(args.models), write)
    return 0


def cmd_inject(args):
    series = read_csv(args.data, (args.control, args.channel))
    seg = segment_control(series, args.control, AUTO, min_duration=2)
    model = None
    if args.model:
        model = _read_doc(args.model, fitted_pair_from_dict).params
    spec = AnomalySpec(AnomalyKind[args.kind.upper()], args.duration,
                       args.magnitude, args.count, args.seed)
    try:
        labeled, report = inject(series, seg, model, spec, args.channel)
    except PlacementError as exc:
        raise PlacementError(f"{args.data}: {exc}") from None

    def write(out):
        write_csv(labeled, out)
        return {"regions": [{"start": s, "end": e, "kind": k.name.lower()}
                            for s, e, k in report.regions]}

    _publish(args, args.seed,
             {"kind": args.kind, "duration": args.duration,
              "magnitude": args.magnitude, "count": args.count,
              "channel": args.channel, "control": args.control},
             [args.data] + ([args.model] if args.model else []), write)
    return 0


def _duration_arg(text):
    value = float(text)
    if 0 < value < 1:
        return value
    if value >= 1 and value.is_integer():
        return int(value)
    raise argparse.ArgumentTypeError(
        "duration must be a positive integer or a fraction in (0,1)"
    )


def cmd_train(args):
    series_list = _load_series_any(args.data)
    names = series_list[0].channel_names
    predicted = args.predicted.split(",") if args.predicted else []
    config, cfg_doc, inputs = _config(
        args, PredictorConfig,
        defaults={"input_channels": names, "predicted_channels": names},
        overrides={"predicted_channels": predicted} if predicted else None)
    channels = tuple(dict.fromkeys(
        (*config.input_channels, *config.predicted_channels)))
    paths = _csv_paths(args.data)
    for name in channels:
        lacking = [path for path, series in zip(paths, series_list)
                   if name not in series.channel_names]
        if lacking:
            # a name that is in the first file may be the first file's own
            source = ("--predicted" if name in predicted
                      else paths[0] if name in names else args.config)
            raise ValueError(
                f"{source}: channel {name!r} is not in {lacking[0]}")
    val_series = (_load_series_any(args.val_normal, channels)
                  if args.val_normal else None)
    net, log = train(series_list, config, val_series=val_series)

    def write(out):
        _write_json(out, network_to_dict(net, config))
        return {"training_log": asdict(log)}

    _publish(args, config.seed, cfg_doc,
             [args.data] + inputs + ([args.val_normal] if args.val_normal else []),
             write)
    return 0


def cmd_threshold(args):
    net, config = _read_doc(args.net, _read_network)
    scorer, achieved = calibrate_scorer(
        net, config, _load_series_any(args.normal, config.input_channels),
        _load_series_any(args.labeled, config.input_channels, True), args.ridge,
        args.beta)
    _publish(args, None,
             {"ridge": args.ridge, "beta": args.beta, "achieved_f": achieved},
             [args.net, args.normal, args.labeled],
             lambda out: _write_json(out, scorer_to_dict(scorer)))
    return 0


def cmd_detect(args):
    net, config, scorer = _load_detector(args)
    paths = _csv_paths(args.data)
    series_list = _load_series_any(args.data, config.input_channels)
    all_scores = score_many(net, config, scorer, series_list)

    def write(out):
        for path, series, scores in zip(paths, series_list, all_scores):
            name = os.path.basename(path)
            if name.endswith(".csv"):
                name = name[:-len(".csv")] + ".detections.csv"
            dt = series.sample_period
            # tolist: Python floats and bools, whose repr and int are written
            flags = (scores < scorer.threshold).tolist()
            _write_text(os.path.join(out, name), "t,score,flag\n" + "".join(
                f"{repr(i * dt)},{repr(score)},{int(flag)}\n"
                for i, (score, flag) in enumerate(zip(scores.tolist(), flags))))

    _publish(args, None, {}, [args.net, args.scorer, args.data], write)
    return 0


def cmd_evaluate(args):
    net, config, scorer = _load_detector(args)
    series_list = _load_series_any(args.data, config.input_channels, True)
    p, r, f = detection_metrics(net, config, scorer, series_list)
    n_points = sum(len(series) for series in series_list)
    report = MetricsReport([RegimeRow("eval", len(series_list), n_points, p, r, f)])
    text = report.to_csv_text() if args.format == "csv" else report.to_table_text()
    if args.out:
        _publish(args, None, {"format": args.format},
                 [args.net, args.scorer, args.data],
                 lambda out: _write_text(out, text))
    else:
        sys.stdout.write(text)
    return 0


def cmd_experiment(args):
    config, _, inputs = _config(args, BenchmarkConfig)
    regimes = args.regimes.split(",") if args.regimes else list(REGIMES)
    report = run_experiment(gen_benchmark(config), regimes)

    def write(out):
        _write_text(os.path.join(out, "report.csv"), report.to_csv_text())
        _write_text(os.path.join(out, "report.txt"), report.to_table_text())

    _publish(args, config.seed, config_to_dict(config), inputs, write)
    return 0


def cmd_curve(args):
    config, _, inputs = _config(args, BenchmarkConfig)
    fractions = [float(q) for q in args.fractions.split(",")]
    curve = augmentation_curve(gen_benchmark(config), fractions)

    def write(out):
        _write_text(os.path.join(out, "curve.csv"), curve_to_csv_text(curve))
        return {"fractions": fractions}

    _publish(args, config.seed, config_to_dict(config), inputs, write)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="odeaug",
        description="ODE-based augmentation and LSTM anomaly detection pipeline",
    )
    sub = parser.add_subparsers(dest="command_name", required=True)

    def add(name, func, out_dir=False, **kwargs):
        # out_dir: whether --out names a directory rather than a file
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, command_name=name, out_dir=out_dir)
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        return p

    p = add("gen-data", cmd_gen_data, out_dir=True,
            help="generate the seeded benchmark datasets")
    p.add_argument("--config", help="benchmark config JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")

    p = add("fit-ode", cmd_fit_ode, help="fit ODE parameters to one series pair")
    p.add_argument("--data", required=True, help="input series CSV")
    p.add_argument("--control", required=True, help="control channel name")
    p.add_argument("--dependent", required=True, help="dependent channel name")
    p.add_argument("--config", help="fit config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--pso", action="store_true", help="enable swarm refinement")
    p.add_argument("--out", required=True, help="output model JSON")

    p = add("synth-control", cmd_synth_control,
            help="build a control profile from observed series")
    p.add_argument("--data", required=True, help="series CSV file or directory")
    p.add_argument("--channel", required=True, help="control channel name")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--min-duration", type=int, default=2, dest="min_duration")
    p.add_argument("--threshold", type=float, default=None,
                   help="fixed high/low threshold (default: auto)")
    p.add_argument("--out", required=True, help="output profile JSON")

    p = add("augment", cmd_augment, out_dir=True,
            help="generate synthetic series pairs")
    p.add_argument("--profile", required=True, help="control profile JSON")
    p.add_argument("--models", required=True, nargs="+",
                   help="fitted donor model JSONs")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = add("inject", cmd_inject, help="inject labeled anomalies into a series")
    p.add_argument("--data", required=True, help="input series CSV")
    p.add_argument("--channel", required=True, help="channel to corrupt")
    p.add_argument("--control", required=True, help="control channel name")
    p.add_argument("--kind", required=True,
                   choices=[k.name.lower() for k in AnomalyKind])
    p.add_argument("--duration", type=_duration_arg, default=None,
                   help="samples (int) or segment fraction (0..1)")
    p.add_argument("--magnitude", type=float, default=None)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", help="fitted model JSON (wrong_state only)")
    p.add_argument("--out", required=True, help="output labeled CSV")

    p = add("train", cmd_train, help="train the LSTM predictor on normal series")
    p.add_argument("--data", required=True, help="training CSV file or directory")
    p.add_argument("--val-normal", dest="val_normal",
                   help="normal validation series for early stopping")
    p.add_argument("--config", help="predictor config JSON")
    p.add_argument("--predicted", help="comma-separated predicted channels")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output network JSON")

    p = add("threshold", cmd_threshold,
            help="fit the Gaussian scorer and select the decision threshold")
    p.add_argument("--net", required=True, help="network JSON")
    p.add_argument("--normal", required=True, help="normal series for the fit")
    p.add_argument("--labeled", required=True, help="labeled series for the threshold")
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output scorer JSON")

    p = add("detect", cmd_detect, out_dir=True,
            help="flag anomalous points in series")
    p.add_argument("--net", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--data", required=True, help="series CSV file or directory")
    p.add_argument("--out", required=True, help="output directory")

    p = add("evaluate", cmd_evaluate, help="score detections against labels")
    p.add_argument("--net", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--data", required=True, help="labeled series CSV or directory")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", help="report output file (default: stdout)")

    p = add("experiment", cmd_experiment, out_dir=True,
            help="run the multi-regime training experiment")
    p.add_argument("--config", help="benchmark config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--regimes", help="comma-separated regime names")
    p.add_argument("--out", required=True, help="output directory")

    p = add("curve", cmd_curve, out_dir=True,
            help="augmentation-fraction curve")
    p.add_argument("--config", help="benchmark config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--fractions", default="0,0.25,0.5,0.75,1")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_out(args)
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        print(f"odeaug {args.command_name}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
