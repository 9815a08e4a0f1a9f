"""Pinned bytes of the pipeline, its ODE half and its detector half.

Two small seeded chains run through the CLI.  The ODE chain runs
``gen-data`` on a tiny config, ``fit-ode`` with and without ``--pso`` and
with a two-window ``--config``, ``synth-control``, ``augment`` and
``inject --kind wrong_state``.  The detector chain runs ``gen-data`` on
criterion 11's tiny config, ``train`` with one and with two layers, each
with and without ``--val-normal``, ``threshold``, ``detect`` and
``evaluate --format csv`` on two of those networks, then ``experiment``
over all five regimes and ``curve``.  The SHA-256 digest of every
artifact is compared with a pinned value.  Manifests are left out because
they record input paths.  A network document holds every weight as a
full-precision float, so its digest pins every bit of training.  The
experiment report rounds to six decimals, so the values of
``build_generated``'s series are pinned by their own digest too.

The LSTM's bits depend on the BLAS gemm kernel.  The pins were taken with
Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31 built with
``DYNAMIC_ARCH``, which picks its kernel by CPU; another machine may need
its own pins.

A refactor must leave every digest as it is.  A change that moves these
bits on purpose updates the digests below and reports the directional
table (criterion 9: wins and mean dF) before and after.
"""

import hashlib
import json
import os

import numpy as np

from odeaug.benchmark import BenchmarkConfig, gen_benchmark
from odeaug.cli import main
from odeaug.experiment import build_generated

EXPECTED = {
    "bench/large/series_000.csv":
        "d82708627671a8b2c51d643c1f4b2e5614a2e3f43866f73521063709bd84cb65",
    "bench/small/series_000.csv":
        "3ba8fb74beb15428b8bfb55b397315cc2802d31ce0549fea3c9e1ecd5b217867",
    "bench/small/series_001.csv":
        "4d413c4c8a3249c98840c852492c2b4007a221fc42d8453a1f80f050a95fc17f",
    "bench/test/series_000.csv":
        "ae1478f7740de2c66fa2cb818eb4b35cc9d44dcffd5260278948516d79d33997",
    "bench/val_anomalous/series_000.csv":
        "ee7cc783365b57ea9e57fc5acffb47676982ac59bdbce10d0b8aa8a904015b8b",
    "bench/val_normal/series_000.csv":
        "b9180deb6e4e10f42f793ddc7a806ea34e5fe21a0dbda505a765cf0b821f2b34",
    "generated/generated_000.csv":
        "c03df4204adc129345cd2671893d0f641ca80fe861ce3847082f15b848e6038e",
    "generated/generated_001.csv":
        "3feed85358191f7044fe1eb166d9d56daa7c2cba6a5ea2922b17f01a1f69f74d",
    "generated/generated_002.csv":
        "a5c7bbf7a2ac7637899dbe9d72e564ca4c69facaa061ccad505e0b01b6fa94df",
    "generated/generated_003.csv":
        "5f2895fded049c53fb58014e8d4a131f154fe115179a21008e49f5619b70170f",
    "generated/generated_004.csv":
        "193f73acdbe05d589bce131f14687152cc32c8ee3c05f1c74b7faf4233fffdc3",
    "generated/generated_005.csv":
        "c5ae21a1b144154789ccbd1b4abc16c6daf9bd93f31d664457d62f5f6c1b38e0",
    "labeled.csv":
        "f10c83e791f229e65d15470a207dc2d5d65d630cd0dc63e813e2c4ecde7fadd1",
    "models/plain.json":
        "6950151fbab7660ce6f06d7cd6b263b00629e409ee06dc480ab70d0ef36e91ea",
    "models/pso.json":
        "9844be318ad678ea9c89c96032358ac4dfd50ba377e58b51f71cea2944775df2",
    "models/windows.json":
        "2d2384587d522f95d55ed8b8702721c2df234875b0c291ea5b35931751f7b77b",
    "profile.json":
        "941f646d7886a08613eca874c915fdb66fc1a7534ad8cbc35d5ab2a9e8bb04cc",
}


def run(*argv):
    assert main(list(argv)) == 0, argv


def _digests(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith("manifest.json"):
                continue
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(full, root).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


def run_chain(root):
    """Run the chain with inputs under ``root`` and outputs under ``root/out``;
    return the digests of the outputs."""
    root = str(root)

    def path(*parts):
        return os.path.join(root, "out", *parts)

    bench_config = os.path.join(root, "bench.json")
    windows_config = os.path.join(root, "windows.json")
    with open(bench_config, "w") as fh:
        json.dump({"series_length": 200, "n_large": 1, "n_small": 2,
                   "n_val_normal": 1, "n_val_anomalous": 1, "n_test": 1}, fh)
    with open(windows_config, "w") as fh:
        json.dump({"window_bounds": [[0, 90], [90, 200]]}, fh)
    run("gen-data", "--config", bench_config, "--seed", "5",
        "--out", path("bench"))
    first = path("bench", "small", "series_000.csv")
    fits = (("plain", first, ()), ("pso", first, ("--pso",)),
            ("windows", path("bench", "small", "series_001.csv"),
             ("--config", windows_config)))
    for name, data, extra in fits:
        run("fit-ode", "--data", data, "--control", "control",
            "--dependent", "response", "--seed", "2", *extra,
            "--out", path("models", f"{name}.json"))
    run("synth-control", "--data", path("bench", "small"),
        "--channel", "control", "--out", path("profile.json"))
    # 300 samples outrun the 200-sample fitted span, so the windowed
    # donor's last window covers the tail
    run("augment", "--profile", path("profile.json"),
        "--models", *[path("models", f"{name}.json") for name, _, _ in fits],
        "--count", "6", "--length", "300", "--seed", "4",
        "--out", path("generated"))
    run("inject", "--data", first, "--channel", "response",
        "--control", "control", "--kind", "wrong_state", "--duration", "15",
        "--model", path("models", "windows.json"), "--seed", "3",
        "--out", path("labeled.csv"))
    return _digests(path())


def test_ode_pipeline_bytes_are_pinned(tmp_path):
    assert run_chain(tmp_path) == EXPECTED


DETECTOR_EXPECTED = {
    "bench/large/series_000.csv":
        "08585672079a16b754413238671671ba10eef3576968ed57d9e57ff7be97b50a",
    "bench/large/series_001.csv":
        "26a7fb5ba2a41164aa619be728287d69c7b0719ad80df12bb09ab0accd86e16e",
    "bench/large/series_002.csv":
        "f0382e5739be2ea99064fcd18ac9a193f85877d5c8f95fdfa559a368c6ae4846",
    "bench/small/series_000.csv":
        "86001187ceed06282d58359a3e8d5331fa5080e942d10c673c759f3009f7a91d",
    "bench/small/series_001.csv":
        "edf69500c3f29238480eb12a546cda9e0ddf74685e4f3ac755c4f7045d59ac64",
    "bench/small/series_002.csv":
        "315f8534a21f48f2df70f63f90a39f84758c960917593b18f351d09826311b6b",
    "bench/test/series_000.csv":
        "6f59af44fbf7bbe3db3f8a91b55b34ee103781b37254f9b0d8da0ef084af8ab8",
    "bench/test/series_001.csv":
        "86763080aca8ee7aaa738b21416bb2f6702d8ef6b02104cf39db892e0330c83d",
    "bench/test/series_002.csv":
        "f7b3c80e4aff097cc9b6305456a7ef03883431be3a68576a8d51972d69fb5f70",
    "bench/val_anomalous/series_000.csv":
        "10f4d975fde510a54752cd16504b22cb24e439de7fd465d03ee5687c5c405f06",
    "bench/val_anomalous/series_001.csv":
        "a9921631f7723a184a503304ac55e73df6e72bbc7d7975d928a0494e2fac2d12",
    "bench/val_anomalous/series_002.csv":
        "3b8e8bb5d53464a294efdae04e56eb8b62b065f923239f42dabbab06ddaeaa8a",
    "bench/val_normal/series_000.csv":
        "d2149e8499ef9c9aaf8763a5a9e193b62fab5aa267b888af060b45a23ceec909",
    "bench/val_normal/series_001.csv":
        "ce6078084fd1f75481856a595bf670a44312f06f1133956f809ad80fe59c3c1c",
    "curve/curve.csv":
        "3767a0dbbc198eb8b8518bf0e7a029906983adc66e1ff2f67a2790882eca568a",
    "experiment/report.csv":
        "2887e2e3634167c14c3592cfe4d34bdf2c0c0aed1e6078d24805640bd7be1122",
    "experiment/report.txt":
        "96415e871b1234d75d5771646ba95385f6fb036f93158dac6805ea4268087c44",
    "layers1_val.detect/series_000.detections.csv":
        "982bd941cd1c51228d08d37e3e02fa0f3e343ef43ff909dc030e125c0debd2da",
    "layers1_val.detect/series_001.detections.csv":
        "126adbb920a422e3713f3255a39a3bd103da3795d1ffe9cfb38149e535a51a52",
    "layers1_val.detect/series_002.detections.csv":
        "0fd89cc352bf07b9456844e53f2ad4d3e3070430c2c5b37bc7b8aee5cb1abf33",
    "layers1_val.eval.csv":
        "3390d39f872552856e9270a3174227af7e49e46f6739baab62506c1aa92a94b3",
    "layers1_val.scorer.json":
        "e67da6628a3fde4f8476389fa4eb97ed01917442567381eea22f2f3cfc8421bb",
    "layers2.detect/series_000.detections.csv":
        "6353b88a33166a7e2645acd33a4716bc6d16bf81b009080a0f5ddc7c30d6a7a1",
    "layers2.detect/series_001.detections.csv":
        "2eadfbcb92e7cb3e3aead4312f32d1e02cfcb2dffa09a02532a999f0bbec0395",
    "layers2.detect/series_002.detections.csv":
        "02747b006d03dc82e8f9bfbb82be737e2177687ffdeb1b1a57e12195fdb5bc14",
    "layers2.eval.csv":
        "26ea03ccf8dbf095f24fb383567fc48c4b4662b69a9a8f94eeb31e4fed6c0eda",
    "layers2.scorer.json":
        "6d9d15a89a9d5e2790c47b73b55ec4439e197828220cf4fad6da812b93941eef",
    "nets/layers1.json":
        "7b81030cf3c2d54a4f29607af47130300d44ebbbbfb1ffef2c0980c93c12a95c",
    "nets/layers1_val.json":
        "d7b8cf4d59fd0225c9b1bf71ab6d2e3355a5d240e5d66d32732d067a4dcaa370",
    "nets/layers2.json":
        "b59daf61404db92e80eb8b5c25c5c1b0227b0524ce78406f9f7e46cbc2aa0253",
    "nets/layers2_val.json":
        "7e5f85f94fc92d079e51686ee1b60156de765de324dae85e073ab8cc9fd4b2ed",
}

# criterion 11's tiny benchmark
TINY_BENCHMARK = {
    "series_length": 200, "n_large": 3, "n_small": 3, "n_generated": 3,
    "n_val_normal": 2, "n_val_anomalous": 3, "n_test": 3,
    "anomaly_duration": 8,
    "lstm": {"layer_sizes": [6], "epochs": 3, "patience": 100},
    "fit": {"sgd": {"epochs": 60}},
}

# the values of build_generated's series on TINY_BENCHMARK at seed 7; the
# experiment report's six decimals do not show every change to them
GENERATED_EXPECTED = (
    "8225106d177b47eadec524ebad54e3c28cbea079d3eb8f9e0a802f9abaa59e6e")


def run_detector_chain(root):
    """Run the detector chain with inputs under ``root`` and outputs under
    ``root/out``; return the digests of the outputs."""
    root = str(root)

    def path(*parts):
        return os.path.join(root, "out", *parts)

    bench_config = os.path.join(root, "bench.json")
    with open(bench_config, "w") as fh:
        json.dump(TINY_BENCHMARK, fh)
    run("gen-data", "--config", bench_config, "--seed", "7",
        "--out", path("bench"))
    for layers in ((6,), (4, 3)):
        net_config = os.path.join(root, f"lstm{len(layers)}.json")
        with open(net_config, "w") as fh:
            json.dump({"layer_sizes": list(layers), "epochs": 3,
                       "prediction_length": 2, "seed": 1}, fh)
        for val in ((), ("--val-normal", path("bench", "val_normal"))):
            run("train", "--data", path("bench", "small"),
                "--predicted", "response", "--config", net_config, *val,
                "--out", path("nets", f"layers{len(layers)}"
                              f"{'_val' if val else ''}.json"))
    for name in ("layers1_val", "layers2"):
        net, scorer = path("nets", f"{name}.json"), path(f"{name}.scorer.json")
        run("threshold", "--net", net, "--normal", path("bench", "val_normal"),
            "--labeled", path("bench", "val_anomalous"), "--out", scorer)
        run("detect", "--net", net, "--scorer", scorer,
            "--data", path("bench", "test"), "--out", path(f"{name}.detect"))
        run("evaluate", "--net", net, "--scorer", scorer,
            "--data", path("bench", "test"), "--format", "csv",
            "--out", path(f"{name}.eval.csv"))
    run("experiment", "--config", bench_config, "--seed", "7",
        "--out", path("experiment"))
    run("curve", "--config", bench_config, "--seed", "7",
        "--fractions", "0,0.5,1", "--out", path("curve"))
    return _digests(path())


def test_detector_pipeline_bytes_are_pinned(tmp_path):
    assert run_detector_chain(tmp_path) == DETECTOR_EXPECTED


def test_generated_series_values_are_pinned():
    bench = gen_benchmark(BenchmarkConfig(**{**TINY_BENCHMARK, "seed": 7}))
    generated = build_generated(bench)
    values = np.concatenate([series.values for series in generated])
    assert hashlib.sha256(values.tobytes()).hexdigest() == GENERATED_EXPECTED
