"""Benchmark the ``odeaug`` pipeline through its command-line entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload {experiment,augment,detect} \
        --seed N --seconds S --trace {0,1}

The run builds its inputs from ``--seed`` and sets up several times.
It then repeats whole rounds of ``odeaug`` commands until the rounds
have taken ``--seconds``; each command is one call of
``odeaug.cli.main`` and fails when it returns non-zero.  Every round's outputs are checked against
independent oracles.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Scratch files go under ``.perfbench_runs/`` and are
removed at exit.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set up at least three times and for at least a second in all, so the
# median set-up time of a cheap set-up is not one cold first pass.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0


class SetupError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "augment", "detect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Calls ``odeaug.cli.main`` in-process, inside a ``cli`` span when traced."""

    def __init__(self, main, tracer):
        self.main = main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def call(self, argv):
        # the program reports errors on stderr; keep stdout for the result
        with contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is not None and self.tracer.active:
                return self.tracer.span("cli", self.main, (argv,))
            return self.main(argv)

    def setup_op(self, argv):
        rc = self.call(argv)
        if rc != 0:
            raise SetupError(f"odeaug {' '.join(argv)} exited with {rc}")

    def timed_op(self, argv):
        self.attempted += 1
        rc = self.call(argv)
        if rc != 0:
            self.failed += 1
            print(f"odeaug {argv[0]} exited with {rc}", file=sys.stderr)
        return rc == 0


def run(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from odeaug.cli import main
    import tracing
    from workloads import QUALITY_METRICS, WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(main, tracer)
    work = os.path.join(ROOT, ".perfbench_runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        if tracer:
            tracer.install()
        setup_times = []
        while (len(setup_times) < SETUP_MIN_REPEATS
               or sum(setup_times) < SETUP_MIN_SECONDS):
            setup_dir = os.path.join(work, f"setup{len(setup_times)}")
            os.makedirs(setup_dir)
            started = time.perf_counter()
            state = workload.setup(setup_dir, args.seed, runner.setup_op)
            setup_times.append(time.perf_counter() - started)

        # A traced run alternates untraced and traced rounds, so the
        # tracing overhead is measured against rounds under the same load.
        round_times, traced_times = [], []
        correct, quality = True, {}
        k = 0
        while (sum(round_times) + sum(traced_times) < args.seconds
               or (tracer and not traced_times)):
            out = os.path.join(work, f"round{k}")
            os.makedirs(out)
            ops = workload.round_ops(state, out)
            traced = bool(tracer) and k % 2 == 1
            if tracer:
                tracer.active = traced
                tracer.phase = "timed"
            started = time.perf_counter()
            ok = [runner.timed_op(argv) for argv in ops]
            elapsed = time.perf_counter() - started
            (traced_times if traced else round_times).append(elapsed)
            if all(ok):
                quality, problems = workload.check(state, out)
                for problem in problems:
                    print(f"check failed: {problem}", file=sys.stderr)
                correct = correct and not problems
            shutil.rmtree(out)
            k += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run uses it

    if tracer:
        metrics = tracing.layer_metrics(tracer, len(setup_times), len(traced_times))
        metrics.update({name: (0.0, unit) for name, unit in QUALITY_METRICS})
        metrics.update(quality)
        timed_spans = sum(1 for span in tracer.spans if span[5] == "timed")
        metrics["trace.spans"] = (timed_spans / len(traced_times), "count")
        metrics["trace.overhead_pct"] = (100.0 * (
            statistics.fmean(traced_times) / statistics.fmean(round_times) - 1.0), "%")
    else:
        metrics = {
            # The host's speed switches between a fast and a slow state
            # within seconds; the mean over the whole timed part is steadier
            # from run to run than the median of a few rounds.
            "wall_s": (statistics.fmean(round_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "odeaug", "cli.py")):
        print(f"no odeaug sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
