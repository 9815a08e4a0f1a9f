"""Command-line pipeline: file-based stages wired over the library.

Every artifact-producing command writes its outputs plus a manifest
recording the seed, a config echo, and content digests of inputs and
outputs, so re-runs with identical seeds are byte-identical and
verifiable.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .anomalies import AnomalyKind, AnomalySpec, inject
from .augment import (AugmentationPlan, fitted_pair_from_dict,
                      fitted_pair_to_dict, FittedPair, generate_with_record)
from .benchmark import config_from_dict, config_to_dict, gen_benchmark
from .control import (AUTO, build_profile, pair_features, profile_from_dict,
                      profile_to_dict, segment_control)
from .experiment import (REGIMES, augmentation_curve, calibrate_scorer,
                         curve_to_csv_text, detection_metrics, run_experiment)
# ``predict``, ``score_series``, ``error_vectors`` and ``select_threshold``
# are not called here; perfbench/tracing.py wraps them by this module's name.
from .lstm import (PredictorConfig, network_from_dict,  # noqa: F401
                   network_to_dict, predict, train)
from .metrics import MetricsReport, RegimeRow
from .ode import STRUCTURE_ID, SeriesPair, fit
from .scoring import (error_vectors, score_many, score_series,  # noqa: F401
                      scorer_from_dict, scorer_to_dict, select_threshold)
from .series import read_csv, read_csv_dir, write_csv

# every exception class in ``errors`` derives from one of these
_RUNTIME_ERRORS = (ValueError, TypeError, OSError, KeyError, RuntimeError)


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


def _ensure_out_dir(path, force):
    if os.path.isfile(path):
        raise ValueError(f"output path {path} is an existing file")
    if os.path.isdir(path) and os.listdir(path):
        if not force:
            raise ValueError(f"output directory {path} is not empty (use --force)")
        import shutil

        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)


def _ensure_out_file(path, force):
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    if os.path.exists(path) and not force:
        raise ValueError(f"output file {path} exists (use --force)")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_doc(path, reader=None):
    """The JSON document at ``path``, passed through ``reader`` if given.

    A key the document lacks is reported with the path and the key.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return doc if reader is None else reader(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None


def _write_manifest(command, out_dir_or_file, seed, config_echo, inputs,
                    extra=None):
    if os.path.isdir(out_dir_or_file):
        manifest_path = os.path.join(out_dir_or_file, "manifest.json")
    else:
        manifest_path = out_dir_or_file + ".manifest.json"
    doc = {
        "version": 1,
        "tool": f"odeaug {__version__}",
        "command": command,
        "seed": seed,
        "config": config_echo,
        "inputs": {p: _digest_tree(p) for p in inputs},
        "outputs": _digest_tree(out_dir_or_file),
    }
    if extra:
        doc.update(extra)
    _write_json(manifest_path, doc)


def _load_series_any(path):
    if os.path.isdir(path):
        return read_csv_dir(path)
    return [read_csv(path)]


def _benchmark_config(args):
    """The benchmark config of ``--config`` with ``--seed`` applied, and
    the manifest's input list."""
    config_doc = _read_doc(args.config) if args.config else {}
    if args.seed is not None:
        config_doc["seed"] = args.seed
    return config_from_dict(config_doc), [args.config] if args.config else []


def _load_detector(args):
    """The network, its config and the thresholded scorer of ``--net``
    and ``--scorer``."""
    net, config = _read_doc(args.net, network_from_dict)
    scorer = _read_doc(args.scorer, scorer_from_dict)
    if scorer.threshold is None:
        raise ValueError("scorer has no threshold; run the threshold command")
    return net, config, scorer


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    config, inputs = _benchmark_config(args)
    _ensure_out_dir(args.out, args.force)
    bench = gen_benchmark(config)
    for name in ("large", "small", "val_normal", "val_anomalous", "test"):
        sub = os.path.join(args.out, name)
        os.makedirs(sub, exist_ok=True)
        for i, series in enumerate(getattr(bench, name)):
            write_csv(series, os.path.join(sub, f"series_{i:03d}.csv"))
    _write_manifest("gen-data", args.out, config.seed, config_to_dict(config),
                    inputs)
    return 0


def cmd_fit_ode(args):
    series = read_csv(args.data)
    fit_doc = _read_doc(args.config) if args.config else {}
    if args.seed is not None:
        fit_doc["seed"] = args.seed
    if args.pso:
        fit_doc["use_pso"] = True
    config = config_from_dict({"fit": fit_doc}).fit
    pair = SeriesPair.from_series(series, args.control, args.dependent)
    report = fit(pair, config)
    seg = segment_control(series, args.control, AUTO, min_duration=2)
    _ensure_out_file(args.out, args.force)
    doc = fitted_pair_to_dict(
        FittedPair(pair_features(seg), report.params, float(pair.dependent[0])),
        rmse=report.rmse,
        dropped_fraction=report.dropped_fraction,
        pso_used=report.pso_used,
        stability_notes=report.notes,
        sample_period=series.sample_period,
        channels={"control": args.control, "dependent": args.dependent},
        seed=config.seed,
    )
    _write_json(args.out, doc)
    _write_manifest(
        "fit-ode", args.out, config.seed,
        {"fit": fit_doc, "structure": STRUCTURE_ID},
        [args.data] + ([args.config] if args.config else []),
    )
    return 0


def cmd_synth_control(args):
    series_list = _load_series_any(args.data)
    segmentations = [
        segment_control(
            s, args.channel,
            AUTO if args.threshold is None else args.threshold,
            min_duration=args.min_duration,
        )
        for s in series_list
    ]
    profile = build_profile(segmentations, bins=args.bins)
    _ensure_out_file(args.out, args.force)
    _write_json(args.out, profile_to_dict(profile))
    _write_manifest(
        "synth-control", args.out, None,
        {"channel": args.channel, "bins": args.bins,
         "min_duration": args.min_duration, "threshold": args.threshold},
        [args.data],
    )
    return 0


def _read_donor(doc):
    """A donor model document's fitted pair, sample period and channel names."""
    channels = doc.get("channels") or {"control": "control",
                                       "dependent": "dependent"}
    return (fitted_pair_from_dict(doc), float(doc["sample_period"]),
            (channels["control"], channels["dependent"]))


def cmd_augment(args):
    profile = _read_doc(args.profile, profile_from_dict)
    donors = [_read_doc(path, _read_donor) for path in args.models]
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
    _ensure_out_dir(args.out, args.force)
    records = []
    for k in range(plan.count):
        series, record = generate_with_record(plan, k)
        write_csv(series, os.path.join(args.out, f"generated_{k:03d}.csv"))
        records.append({
            "index": record.index,
            "donor_index": record.donor_index,
            "donor_model": args.models[record.donor_index],
            "seed_key": list(record.seed_key),
        })
    _write_manifest(
        "augment", args.out, args.seed,
        {"count": args.count, "length": args.length},
        [args.profile] + list(args.models),
        extra={"generated": records},
    )
    return 0


def cmd_inject(args):
    series = read_csv(args.data)
    seg = segment_control(series, args.control, AUTO, min_duration=2)
    model = None
    if args.model:
        model = _read_doc(args.model, fitted_pair_from_dict).params
    spec = AnomalySpec(
        kind=AnomalyKind[args.kind.upper()],
        duration=args.duration,
        magnitude=args.magnitude,
        count=args.count,
        seed=args.seed,
    )
    labeled, report = inject(series, seg, model, spec, args.channel)
    _ensure_out_file(args.out, args.force)
    write_csv(labeled, args.out)
    _write_manifest(
        "inject", args.out, args.seed,
        {"kind": args.kind, "duration": args.duration,
         "magnitude": args.magnitude, "count": args.count,
         "channel": args.channel, "control": args.control},
        [args.data] + ([args.model] if args.model else []),
        extra={"regions": [
            {"start": s, "end": e, "kind": k.name.lower()}
            for s, e, k in report.regions
        ]},
    )
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
    cfg_doc = _read_doc(args.config) if args.config else {}
    cfg_doc.setdefault("input_channels", series_list[0].channel_names)
    if args.predicted:
        cfg_doc["predicted_channels"] = args.predicted.split(",")
    else:
        cfg_doc.setdefault("predicted_channels", series_list[0].channel_names)
    if args.seed is not None:
        cfg_doc["seed"] = args.seed
    config = PredictorConfig(**cfg_doc)
    val_series = _load_series_any(args.val_normal) if args.val_normal else None
    net, log = train(series_list, config, val_series=val_series)
    _ensure_out_file(args.out, args.force)
    _write_json(args.out, network_to_dict(net, config))
    _write_manifest(
        "train", args.out, config.seed, cfg_doc,
        [args.data] + ([args.config] if args.config else [])
        + ([args.val_normal] if args.val_normal else []),
        extra={"training_log": {
            "train_losses": log.train_losses,
            "val_losses": log.val_losses,
            "best_epoch": log.best_epoch,
            "stopped_early": log.stopped_early,
        }},
    )
    return 0


def cmd_threshold(args):
    net, config = _read_doc(args.net, network_from_dict)
    scorer, achieved = calibrate_scorer(
        net, config, _load_series_any(args.normal),
        _load_series_any(args.labeled), args.ridge, args.beta,
    )
    _ensure_out_file(args.out, args.force)
    _write_json(args.out, scorer_to_dict(scorer))
    _write_manifest(
        "threshold", args.out, None,
        {"ridge": args.ridge, "beta": args.beta, "achieved_f": achieved},
        [args.net, args.normal, args.labeled],
    )
    return 0


def cmd_detect(args):
    net, config, scorer = _load_detector(args)
    if os.path.isdir(args.data):
        names = sorted(f for f in os.listdir(args.data) if f.endswith(".csv"))
        paths = [os.path.join(args.data, f) for f in names]
    else:
        names = [os.path.basename(args.data)]
        paths = [args.data]
    series_list = [read_csv(path) for path in paths]
    # every input is read and scored before the old output is removed
    all_scores = score_many(net, config, scorer, series_list)
    _ensure_out_dir(args.out, args.force)
    for name, series, scores in zip(names, series_list, all_scores):
        flags = scores < scorer.threshold
        out_path = os.path.join(args.out, name.replace(".csv", ".detections.csv"))
        with open(out_path, "w") as fh:
            fh.write("t,score,flag\n")
            for i in range(len(series)):
                t = repr(i * series.sample_period)
                fh.write(f"{t},{repr(float(scores[i]))},{int(flags[i])}\n")
    _write_manifest("detect", args.out, None, {}, [args.net, args.scorer, args.data])
    return 0


def cmd_evaluate(args):
    net, config, scorer = _load_detector(args)
    series_list = _load_series_any(args.data)
    p, r, f = detection_metrics(net, config, scorer, series_list)
    n_points = sum(len(series) for series in series_list)
    report = MetricsReport([RegimeRow("eval", len(series_list), n_points, p, r, f)])
    text = report.to_csv_text() if args.format == "csv" else report.to_table_text()
    if not args.out:
        sys.stdout.write(text)
        return 0
    _ensure_out_file(args.out, args.force)
    with open(args.out, "w") as fh:
        fh.write(text)
    _write_manifest("evaluate", args.out, None, {"format": args.format},
                    [args.net, args.scorer, args.data])
    return 0


def cmd_experiment(args):
    config, inputs = _benchmark_config(args)
    regimes = args.regimes.split(",") if args.regimes else list(REGIMES)
    bench = gen_benchmark(config)
    report = run_experiment(bench, regimes)
    _ensure_out_dir(args.out, args.force)
    with open(os.path.join(args.out, "report.csv"), "w") as fh:
        fh.write(report.to_csv_text())
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(report.to_table_text())
    _write_manifest("experiment", args.out, config.seed,
                    config_to_dict(config), inputs)
    return 0


def cmd_curve(args):
    config, inputs = _benchmark_config(args)
    fractions = [float(q) for q in args.fractions.split(",")]
    bench = gen_benchmark(config)
    curve = augmentation_curve(bench, fractions)
    _ensure_out_dir(args.out, args.force)
    with open(os.path.join(args.out, "curve.csv"), "w") as fh:
        fh.write(curve_to_csv_text(curve))
    _write_manifest(
        "curve", args.out, config.seed, config_to_dict(config), inputs,
        extra={"fractions": fractions},
    )
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="odeaug",
        description="ODE-based augmentation and LSTM anomaly detection pipeline",
    )
    sub = parser.add_subparsers(dest="command_name", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, command_name=name)
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        return p

    p = add("gen-data", cmd_gen_data, help="generate the seeded benchmark datasets")
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

    p = add("augment", cmd_augment, help="generate synthetic series pairs")
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

    p = add("detect", cmd_detect, help="flag anomalous points in series")
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

    p = add("experiment", cmd_experiment,
            help="run the multi-regime training experiment")
    p.add_argument("--config", help="benchmark config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--regimes", help="comma-separated regime names")
    p.add_argument("--out", required=True, help="output directory")

    p = add("curve", cmd_curve, help="augmentation-fraction curve")
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
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        print(f"odeaug {args.command_name}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
