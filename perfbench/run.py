"""Benchmark of ramex: in-process `ramex build` and `ramex certify`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark imports ramex from the checkout's ``src/`` and calls
``ramex.cli.main`` exactly as the ``ramex`` command does.  It changes
nothing under ``src/``.

``--trace 0`` repeats the workload's operation until ``--seconds`` would
be exceeded and reports the end-to-end metrics: ``op_s`` (median seconds
per operation: one build on a build workload, one certify on a certify
workload), ``cpu_s`` (median CPU seconds per operation, the process plus
its reaped workers), ``setup_s`` (median of several imports of ramex plus
input generation) and ``peak_rss_mb``.  The three times are scaled to a
reference machine speed (see ``speed.py``); the raw seconds, a tail
percentile and the sample counts are printed beside them.  The error rate
is printed too; it is carried in ``attempted`` and ``failed`` rather than
as a metric, because it is 0 when ramex is correct.

``--trace 1`` runs a fixed unit of work (one build, or one certify of
every graph in the batch) once untraced and once traced, and reports
per-layer metrics per operation, in raw seconds, plus the tracing
overhead in reference seconds; the unit is repeated while ``--seconds``
allows.

Every operation's output is checked; see ``check_build`` and
``check_certify``.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# ramex's own standard-library imports, loaded here so that set-up times
# only the import of ramex itself.
import concurrent.futures.process  # noqa: F401
import fractions  # noqa: F401
import hashlib  # noqa: F401
import itertools  # noqa: F401
import typing  # noqa: F401

import checks
import layers
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

SETUP_REPEATS = 15


@dataclass(frozen=True)
class Workload:
    kind: str  # "build" or "certify"
    n: int
    d: int
    jobs: int = 1
    batch: int = 0  # certify: number of graphs generated from the seed


# Why each workload was chosen is recorded in BENCHMARK.json.  Build inputs
# are fixed by (n, d); the seed only changes the certify batch.
WORKLOADS = {
    "build-n14-d3": Workload("build", 14, 3),
    "build-n10-d6": Workload("build", 10, 6),
    "certify-n64-d3": Workload("certify", 64, 3, batch=96),
    # Not listed in BENCHMARK.json: the only workload that runs the walk's
    # worker processes, but on a two-CPU host that sometimes loses one CPU
    # for tens of seconds its wall time is not steady (ten-seed spread
    # 0.19).  Run it by hand, traced, to see the pool layer.
    "build-n10-d6-jobs2": Workload("build", 10, 6, jobs=2),
    # Small cases for selftest.py.
    "smoke-n6-d3": Workload("build", 6, 3),
    "certify-n16-d3": Workload("certify", 16, 3, batch=8),
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no ramex sources)."""


# -- set-up ---------------------------------------------------------------


def import_ramex():
    """Import ramex afresh from the checkout and return ``ramex.cli``."""
    for name in [k for k in sys.modules if k == "ramex" or k.startswith("ramex.")]:
        del sys.modules[name]
    if not (SRC / "ramex" / "__init__.py").is_file():
        raise SetupError(f"no ramex package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ramex.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"ramex was imported from {cli.__file__}, not from {SRC}")
    return cli


def random_graph(rng: random.Random, m: int, d: int) -> list[list[int]]:
    """Multiplicity matrix of the union of d uniformly random perfect matchings."""
    mult = [[0] * m for _ in range(m)]
    for _ in range(d):
        perm = list(range(m))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mult[i][j] += 1
    return mult


def make_inputs(workload: Workload, seed: int) -> list[tuple[str, list]]:
    """JSON text and multiplicity matrix of each graph of a certify batch."""
    rng = random.Random(seed)
    inputs = []
    for _ in range(workload.batch):
        mult = random_graph(rng, workload.n // 2, workload.d)
        inputs.append((json.dumps({"n": workload.n, "d": workload.d, "multiplicity": mult}), mult))
    return inputs


def set_up(workload: Workload, seed: int, work: Path):
    """Import ramex and generate the inputs SETUP_REPEATS times.

    Compiled bytecode goes to a directory of this run, so every run starts
    from the same state whatever ``__pycache__`` the checkout holds.  The
    graph files are written once, after the timed set-ups: the benchmark's
    own file writes would only add the disk's noise to ``setup_s``.
    Returns the last ``ramex.cli``, the (graph file, multiplicity) inputs
    and every set-up time.
    """
    times = []
    saved_prefix = sys.pycache_prefix
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sys.pycache_prefix = str(work / "pycache")
        try:
            cli = import_ramex()
        finally:
            sys.pycache_prefix = saved_prefix
        inputs = make_inputs(workload, seed)
        times.append(time.perf_counter() - start)
    graphs = work / "inputs"
    graphs.mkdir()
    files = []
    for k, (text, mult) in enumerate(inputs):
        path = graphs / f"graph-{k}.json"
        path.write_text(text)
        files.append((path, mult))
    return cli, files, times


# -- operations -----------------------------------------------------------


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def call_cli(cli, argv: list[str]):
    """Run ``ramex <argv>`` in-process: (exit code or None, stdout, seconds, CPU seconds)."""
    out = io.StringIO()
    cpu_start = _cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds, _cpu_s() - cpu_start


def build_argv(workload: Workload, out_dir: Path) -> list[str]:
    return [
        "build", "--n", str(workload.n), "--d", str(workload.d),
        "--out", str(out_dir), "--jobs", str(workload.jobs),
    ]  # fmt: skip


def check_build(cli, workload: Workload, code, out_dir: Path) -> list[str]:
    """Problems with a build: it must exit 0 with a passing certificate,
    write the reference leaf, and its graph must certify again."""
    if code != 0:
        return [f"build exited {code}"]
    graph_path = out_dir / "graph.json"
    cert = json.loads((out_dir / "certificate.json").read_text())
    problems = []
    if cert.get("passed") is not True:
        problems.append("certificate.json does not say passed: true")
    expected = REFERENCE["graph_sha256"][f"{workload.n},{workload.d}"]
    if checks.sha256_file(graph_path) != expected:
        problems.append("graph.json differs from the reference leaf")
    mult = json.loads(graph_path.read_text())["multiplicity"]
    problems += checks.check_certificate(cert, mult, workload.d)
    recode, text, _, _ = call_cli(cli, ["certify", str(graph_path)])
    if recode != 0:
        problems.append(f"certify of the built graph.json exited {recode}")
    else:
        problems += checks.check_certificate(json.loads(text), mult, workload.d)
    return problems


def check_certify(workload: Workload, code, text: str, mult) -> list[str]:
    """Problems with a certify: exit 0 or 1 agreeing with ``passed``, and a
    certificate that matches the graph."""
    if code not in (0, 1):
        return [f"certify exited {code}"]
    cert = json.loads(text)
    problems = checks.check_certificate(cert, mult, workload.d)
    if cert.get("passed") is not (code == 0):
        problems.append(f"exit code {code} disagrees with passed={cert.get('passed')}")
    return problems


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, cli, workload: Workload, inputs: list, work: Path):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.out_dir = work / "out"
        self.attempted = 0
        self.failed = 0
        self.graph_passed: dict[int, bool] = {}

    def unit_size(self) -> int:
        """Operations in one trace unit: one build, or the whole certify batch."""
        return len(self.inputs) if self.workload.kind == "certify" else 1

    def run(self, index: int, tracer: layers.Tracer | None = None) -> tuple[float, float]:
        """One checked operation; returns its (seconds, CPU seconds)."""
        if self.workload.kind == "build":
            shutil.rmtree(self.out_dir, ignore_errors=True)
            argv = build_argv(self.workload, self.out_dir)
        else:
            graph, mult = self.inputs[index % len(self.inputs)]
            argv = ["certify", str(graph)]
        if tracer is not None:
            tracer.install({k: v for k, v in sys.modules.items() if k.split(".")[0] == "ramex"})
        try:
            code, text, seconds, cpu = call_cli(self.cli, argv)
        finally:
            if tracer is not None:
                tracer.restore()
        try:
            if self.workload.kind == "build":
                problems = check_build(self.cli, self.workload, code, self.out_dir)
            else:
                problems = check_certify(self.workload, code, text, mult)
                self.graph_passed[index % len(self.inputs)] = code == 0
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"operation {index} failed its check: {'; '.join(problems)}", file=sys.stderr)
        return seconds, cpu


# -- reporting ------------------------------------------------------------


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    ranked = sorted(values)
    rank = len(ranked) - 10
    if rank < 1:
        return None
    return math.floor(100 * rank / len(ranked)), ranked[rank - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values)
    if tail is None:
        line += f", no tail percentile ({len(values)} samples; one needs 11 or more)"
    else:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}, {len(values)} samples"
    return line


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest reaped worker.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bits"):
        return "bits"
    return "count"


# -- modes ----------------------------------------------------------------


def measure(runner: Runner, seconds: float, speedometer: speed.Speedometer):
    """Repeat checked operations while the next one is expected to end
    within ``seconds``; always run at least one.  Returns the operations'
    seconds, CPU seconds and the speedometer mark at the start of each."""
    durations, cpus, marks, rounds = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        marks.append(speedometer.mark())
        op_seconds, op_cpu = runner.run(index)
        durations.append(op_seconds)
        cpus.append(op_cpu)
        rounds.append(time.perf_counter() - round_start)
        index += 1
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return durations, cpus, marks


def measure_traced(runner: Runner, seconds: float, speedometer: speed.Speedometer):
    """Alternate untraced and traced trace units while ``seconds`` allows.

    The overhead compares the two kinds of operation in reference seconds,
    since raw times on a drifting host differ more than tracing costs."""
    tracer = layers.Tracer()
    ops, marks = [], []  # ops: (seconds, traced)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in (None, tracer):
            for index in range(runner.unit_size()):
                marks.append(speedometer.mark())
                ops.append((runner.run(index, traced)[0], traced is not None))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > seconds:
            break
    speedometer.stop()
    if tracer.missing:
        print(f"not traced, absent from ramex: {', '.join(tracer.missing)}")
    traced_ops = sum(traced for _, traced in ops)
    scaled = [(s * f, traced) for (s, traced), f in zip(ops, speedometer.factors(marks))]
    metrics = layers.layer_metrics(tracer, traced_ops)
    metrics["trace.overhead_s"] = (
        sum(s for s, traced in scaled if traced) - sum(s for s, traced in scaled if not traced)
    ) / traced_ops
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    speedometer = speed.Speedometer()
    try:
        speedometer.start()
        try:
            cli, inputs, setup_times = set_up(workload, args.seed, work)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        runner = Runner(cli, workload, inputs, work)
        op_name = f"{workload.kind}_s"
        print(
            f"workload {args.workload}: {workload.kind} n={workload.n} d={workload.d} "
            f"jobs={workload.jobs}, seed {args.seed}, src/ {src_line_count()} lines"
        )
        if args.trace:
            values = measure_traced(runner, args.seconds, speedometer)
            print(f"traced {op_name} per operation; trace.overhead_s {values['trace.overhead_s']:.6g} s")
        else:
            setup_mark = speedometer.mark()
            durations, cpus, marks = measure(runner, args.seconds, speedometer)
            speedometer.stop()
            factors = speedometer.factors(marks)
            values = {
                "op_s": statistics.median(d * f for d, f in zip(durations, factors)),
                "cpu_s": statistics.median(c * f for c, f in zip(cpus, factors)),
                "setup_s": statistics.median(setup_times) * speedometer.factor(0, setup_mark),
                "peak_rss_mb": peak_rss_mb(),
            }
            print(describe(op_name, durations, "s"))
            print(describe("cpu_s", cpus, "s"))
            print(describe("setup_s", setup_times, "s"))
            print(
                f"speed: {len(speedometer.samples)} samples of the reference kernel, "
                f"scale factors {min(factors):.4g} to {max(factors):.4g}; scaled to the "
                f"reference speed, op_s {values['op_s']:.6g} s, cpu_s {values['cpu_s']:.6g} s, "
                f"setup_s {values['setup_s']:.6g} s"
            )
            print(f"peak_rss_mb: {values['peak_rss_mb']:.6g} MB")
        print(
            f"error_rate: {runner.failed / runner.attempted:.6g} "
            f"({runner.failed} of {runner.attempted} operations failed)"
        )
        if workload.kind == "certify":
            print(
                f"certify batch: {sum(runner.graph_passed.values())} of "
                f"{len(runner.graph_passed)} certified graphs pass "
                f"(batch of {len(inputs)} from seed {args.seed})"
            )
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        speedometer.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
