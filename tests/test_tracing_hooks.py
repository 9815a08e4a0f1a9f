"""The traced benchmark finds every program function it wraps.

``perfbench/tracing.py`` replaces functions by module and attribute name;
one name that a module stops binding makes every traced run fail.  Its
work functions also read arguments by position, so a traced chain of
commands checks that the wrapped calls still pass what they read.
"""

import importlib
import importlib.util
import json
import os

from odeaug.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped():
    return _tracing()._WRAPPED


def test_every_wrapped_attribute_resolves():
    missing = [f"{module}.{attr}" for module, attr, _, _ in _wrapped()
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_traced_ode_chain_counts_integration_steps(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "series_length": 120, "n_large": 1, "n_small": 1, "n_val_normal": 1,
        "n_val_anomalous": 1, "n_test": 1}))
    bench, model = tmp_path / "bench", tmp_path / "model.json"
    series = str(bench / "small" / "series_000.csv")
    pso = json.dumps({"pso": {"swarm_size": 6, "iterations": 3}})
    (tmp_path / "fit.json").write_text(pso)
    commands = [
        ["gen-data", "--config", str(config), "--out", str(bench)],
        ["fit-ode", "--data", series, "--control", "control",
         "--dependent", "response", "--config", str(tmp_path / "fit.json"),
         "--pso", "--out", str(model)],
        ["synth-control", "--data", series, "--channel", "control",
         "--out", str(tmp_path / "profile.json")],
        ["augment", "--profile", str(tmp_path / "profile.json"),
         "--models", str(model), "--count", "2", "--length", "150",
         "--out", str(tmp_path / "generated")],
        ["inject", "--data", series, "--channel", "response",
         "--control", "control", "--kind", "wrong_state", "--duration", "10",
         "--model", str(model), "--out", str(tmp_path / "labeled.csv")],
    ]
    tracer = _tracing().Tracer()
    tracer.install()
    integrations = []
    try:
        for argv in commands:
            assert main(argv) == 0, argv
            integrations.append([span[4] for span in tracer.spans
                                 if span[0] == "ode.integrate"])
    finally:
        tracer.uninstall()
    # every command but synth-control integrates; each span counts its steps
    new = [len(b) - len(a) for a, b in zip([[]] + integrations, integrations)]
    assert [n > 0 for n in new] == [True, True, False, True, True]
    assert all(work > 0 for work in integrations[-1])
