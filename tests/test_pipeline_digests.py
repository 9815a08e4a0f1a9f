"""Pinned bytes of the ODE half of the pipeline.

A small seeded chain runs through the CLI: ``gen-data`` on a tiny config,
``fit-ode`` with and without ``--pso`` and with a two-window ``--config``,
``synth-control``, ``augment`` and ``inject --kind wrong_state``.  The
SHA-256 digest of every artifact is compared with a pinned value.
Manifests are left out because they record input paths.

A refactor must leave every digest as it is.  A change that moves these
bits on purpose updates the digests below and reports the directional
table (criterion 9: wins and mean dF) before and after.
"""

import hashlib
import json
import os

from odeaug.cli import main

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

    def run(*argv):
        assert main(list(argv)) == 0, argv

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
