"""Seeded mutation fuzz of the pipeline documents: the fitted ODE model,
the control profile, the network, the scorer and the series CSV, each
run through every command that reads it.

The mutations are those of the config fuzz in ``test_config.py``: a
dropped key, a wrong type, NaN or +-inf, a wrong length, a list for an
object and a truncated file.  Every run must exit 0, or exit 1 or 2
naming the mutated file; an uncaught exception fails the test.
"""

import copy
import json
import math
import os

import numpy as np
import pytest

from odeaug.cli import main

MUTATIONS = ("drop", "wrong_type", "non_finite", "wrong_length",
             "list_object", "truncate")
CONSUMERS = {
    "model": ("augment", "inject"),
    "profile": ("augment",),
    "network": ("threshold", "detect", "evaluate"),
    "scorer": ("detect", "evaluate"),
    "csv": ("inject", "threshold", "detect", "evaluate"),
}
TRIALS = 4


def run(*argv):
    assert main(list(argv)) == 0, argv


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """One valid document of every kind, made by the pipeline."""
    root = tmp_path_factory.mktemp("documents")
    config = root / "bench.json"
    config.write_text(json.dumps({
        "seed": 1, "series_length": 120, "n_large": 1, "n_small": 2,
        "n_generated": 1, "n_val_normal": 1, "n_val_anomalous": 2,
        "n_test": 1, "anomaly_duration": 6, "fit": {"sgd": {"epochs": 20}}}))
    bench = root / "bench"
    run("gen-data", "--config", str(config), "--out", str(bench))
    small = bench / "small"
    paths = {"model": root / "model.json", "profile": root / "profile.json",
             "network": root / "network.json", "scorer": root / "scorer.json",
             "csv": bench / "val_anomalous" / "series_000.csv",
             "normal": bench / "val_normal"}
    paths = {name: str(path) for name, path in paths.items()}
    run("fit-ode", "--data", str(small / "series_000.csv"),
        "--control", "control", "--dependent", "response",
        "--out", paths["model"])
    run("synth-control", "--data", str(small), "--channel", "control",
        "--out", paths["profile"])
    train_config = root / "lstm.json"
    train_config.write_text(json.dumps(
        {"layer_sizes": [3], "epochs": 2, "prediction_length": 2}))
    run("train", "--data", str(small), "--predicted", "response",
        "--config", str(train_config), "--out", paths["network"])
    run("threshold", "--net", paths["network"], "--normal", paths["normal"],
        "--labeled", str(bench / "val_anomalous"), "--out", paths["scorer"])
    return paths


def command_line(command, paths):
    return {
        "augment": ["augment", "--profile", paths["profile"],
                    "--models", paths["model"], "--count", "2",
                    "--length", "60"],
        "inject": ["inject", "--data", paths["csv"], "--channel", "response",
                   "--control", "control", "--kind", "wrong_state",
                   "--duration", "4", "--model", paths["model"]],
        "threshold": ["threshold", "--net", paths["network"],
                      "--normal", paths["normal"], "--labeled", paths["csv"]],
        "detect": ["detect", "--net", paths["network"],
                   "--scorer", paths["scorer"], "--data", paths["csv"]],
        "evaluate": ["evaluate", "--net", paths["network"],
                     "--scorer", paths["scorer"], "--data", paths["csv"]],
    }[command]


def _containers(value):
    """``value`` and every object or list nested in it."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def mutate_json(base, kind, rng):
    """The JSON text of the document ``base`` after one ``kind`` mutation."""
    doc = copy.deepcopy(base)
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:rng.integers(len(text))]
    # the document is the one item of ``root``, so it can be picked too
    root = [doc]

    def pick(keep):
        """A random (container, key) whose value passes ``keep``; the
        container is drawn first, so short objects are not swamped by
        weight matrices."""
        slots = [[(c, key) for key in (c if isinstance(c, dict)
                                       else range(len(c))) if keep(c[key])]
                 for c in _containers(doc if kind != "list_object" else root)]
        slots = [s for s in slots if s]
        group = slots[rng.integers(len(slots))]
        return group[rng.integers(len(group))]

    if kind == "drop":
        obj, key = pick(lambda v: True)
        del obj[key]
    elif kind == "wrong_type":
        obj, key = pick(lambda v: True)
        obj[key] = ["x", None, True, {"a": 1}, [1, "x"]][rng.integers(5)]
    elif kind == "non_finite":
        obj, key = pick(lambda v: type(v) in (int, float))
        obj[key] = [math.nan, math.inf, -math.inf][rng.integers(3)]
    elif kind == "wrong_length":
        obj, key = pick(lambda v: isinstance(v, list) and v)
        obj[key] = obj[key] + obj[key][-1:] if rng.integers(2) else obj[key][:-1]
    elif kind == "list_object":
        obj, key = pick(lambda v: isinstance(v, dict))
        obj[key] = list(obj[key].values())
    return json.dumps(root[0])


def mutate_csv(text, kind, rng):
    """``text``, a series CSV, after one ``kind`` mutation; a CSV holds no
    objects, so ``list_object`` puts a JSON list in a field."""
    if kind == "truncate":
        return text[:rng.integers(len(text))]
    rows = [line.split(",") for line in text.splitlines()]
    i, j = 1 + rng.integers(len(rows) - 1), rng.integers(len(rows[0]))
    if kind == "drop":
        rows = [row[:j] + row[j + 1:] for row in rows]
    elif kind == "wrong_type":
        rows[i][j] = ["x", "", "true", "0x10"][rng.integers(4)]
    elif kind == "non_finite":
        rows[i][j] = ["nan", "inf", "-inf"][rng.integers(3)]
    elif kind == "wrong_length":
        rows[i] = rows[i] + ["1"] if rng.integers(2) else rows[i][:-1]
    elif kind == "list_object":
        rows[i][j] = '"[1, 2]"'
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("kind", sorted(CONSUMERS))
def test_base_documents_run(kind, documents, tmp_path):
    for command in CONSUMERS[kind]:
        run(*command_line(command, documents),
            "--out", str(tmp_path / command))


@pytest.mark.parametrize("kind", sorted(CONSUMERS))
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_document_exits_cleanly(kind, mutation, documents, tmp_path,
                                        capsys):
    rng = np.random.default_rng([sorted(CONSUMERS).index(kind),
                                 MUTATIONS.index(mutation)])
    base = open(documents[kind]).read()
    broken = tmp_path / os.path.basename(documents[kind])
    paths = {**documents, kind: str(broken)}
    for trial in range(TRIALS):
        text = (mutate_csv(base, mutation, rng) if kind == "csv"
                else mutate_json(json.loads(base), mutation, rng))
        broken.write_text(text)
        for command in CONSUMERS[kind]:
            out = tmp_path / f"{command}{trial}"
            code = main(command_line(command, paths) + ["--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (command, text, err)
            if code:
                assert str(broken) in err, (command, text, err)


@pytest.mark.parametrize("kind", ["model", "profile", "network", "scorer"])
def test_document_of_another_version_exits_1_naming_it(kind, documents,
                                                       tmp_path, capsys):
    # a document of version 2 used to be read as version 1
    doc = json.load(open(documents[kind]))
    doc["version"] = 2
    other = tmp_path / os.path.basename(documents[kind])
    other.write_text(json.dumps(doc))
    paths = {**documents, kind: str(other)}
    for command in CONSUMERS[kind]:
        code = main(command_line(command, paths)
                    + ["--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert code == 1 and f"{other}: " in err and "version" in err, err
