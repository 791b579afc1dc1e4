"""Benchmark of the circgeo command line on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-classify --seed 1 --seconds 20 --trace 0

With --trace 0 the workload's commands run as fresh `python -m circgeo`
processes in a closed loop, one at a time, each started after the previous
one exited, and each followed by a start-up probe (`python -m circgeo
--help`) that times interpreter start, `import circgeo.cli` and the argparse
build. The end-to-end metrics come from these runs: each child's CPU time,
rescaled by the core speed a SpeedSensor measured beside it to seconds at a
fixed reference speed. Wall times are printed too.

With --trace 1 the timed commands run in this process through
circgeo.cli.main(argv), alternating untraced passes with passes under the
timing wrappers of tracer.py; untimed commands run once, only to be checked.
The per-layer metrics come from these runs.

Every output is checked: the first run of each command against the
reference in reference.py, every later run for byte identity with the first.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metrics are those BENCHMARK.json lists.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child, so a command occupies
# one core.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import timeit
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import workloads
from tracer import LAYERS, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 60.0
MIN_SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
# Functions the per-layer metrics name; reported as zero calls if absent.
NAMED_FUNCTIONS = (
    "core.as_vector",
    "core.causal_character",
    "core.cos_phi",
    "core.g_inner",
    "core.f_inner",
    "core.q_apply",
    "core.fmt_float",
    "frames.orthonormal_q_basis",
    "frames.companion_w",
    "frames.gram_matrix",
    "quadrics.sample_quadric",
)


@dataclass
class Tally:
    """Items attempted and failed across every checked run, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    def add(self, verdict: reference.Verdict, label: str) -> None:
        self.attempted += verdict.items
        self.failed += verdict.failed
        self.errors += [f"{label}: {e}" for e in verdict.errors]
        for key, value in verdict.notes.items():
            self.notes[key] = self.notes.get(key, 0) + value


def digest(code: int, stdout: bytes, output: bytes) -> str:
    return hashlib.sha256(b"%d\0%s\0%s" % (code, stdout, output)).hexdigest()


def clear_output(command: workloads.Command) -> None:
    if command.output is not None:
        command.output.unlink(missing_ok=True)


def read_output(command: workloads.Command) -> bytes:
    if command.output is None or not command.output.exists():
        return b""
    return command.output.read_bytes()


class Expected:
    """The first checked output of each command; later runs must repeat it byte for byte.

    Each command's items count once per benchmark run, as its first run's
    verdict says, so attempted and failed depend on the seed alone and not on
    how many repeats fit in the run. A repeat that differs fails every item of
    its command and is an error.
    """

    def __init__(self, commands: list[workloads.Command], first: list[tuple[int, bytes, bytes]], tally: Tally):
        self.tally = tally
        self.digests, self.items, self.fails, self.completed = [], [], [], []
        for command, (code, stdout, data) in zip(commands, first):
            verdict = command.check(code, stdout, data)
            tally.add(verdict, command.args[0])
            self.digests.append(digest(code, stdout, data))
            self.items.append(verdict.items)
            self.fails.append(verdict.failed)
            # Items whose work ran to the end: not the rows reported as zero vectors.
            self.completed.append(verdict.items - verdict.notes.get("zero_vector_rows", 0))

    def repeat(self, k: int, code: int, stdout: bytes, data: bytes) -> None:
        if digest(code, stdout, data) != self.digests[k]:
            self.tally.failed += self.items[k] - self.fails[k]
            self.fails[k] = self.items[k]
            self.tally.errors.append(f"command {k}: exit code {code}; output differs from the first run")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# Each core of the 2-vCPU host the benchmark was built on takes 1.0 to about
# 1.7 times its best time for the same Python, in phases of seconds and
# independently of the other core, and a child's CPU time swings with it. So every child runs pinned to
# one core next to a SpeedSensor thread that times a fixed chunk of Python on
# that core while the child runs, and each CPU time is rescaled by the speed
# the sensor saw. CORES take turns, one child after another.
CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SENSOR_PAUSE_S = 0.01
SENSOR_FLOATS = 400_000  # the chunk's working set, well beyond the per-core caches
SENSOR_READS = 2_000
SENSOR_NUMPY_CALLS = 40
# CPU seconds of one sensor chunk on that host's cores in their fastest
# phases: the speed the rescaled times refer to.
REFERENCE_CHUNK_S = 1.2e-3


class SpeedSensor(threading.Thread):
    """Times a fixed chunk of Python, by its own CPU time, every SENSOR_PAUSE_S until halted.

    The chunk reads SENSOR_READS floats of a large list in shuffled order and
    makes SENSOR_NUMPY_CALLS small numpy calls on a 3-vector: a tight loop
    alone slows less than the commands do when the core is slow, this mix
    about as much. Started from a thread pinned to a core, the sensor runs on
    that core too. speed() is REFERENCE_CHUNK_S over the mean chunk time:
    below 1 while the core is slower than the reference.
    """

    floats: list[float] = []
    order: list[int] = []
    matrix = np.eye(3)

    def __init__(self) -> None:
        super().__init__(daemon=True)
        if not SpeedSensor.floats:
            rng = random.Random(0)
            SpeedSensor.floats = [rng.random() for _ in range(SENSOR_FLOATS)]
            SpeedSensor.order = list(range(SENSOR_FLOATS))
            rng.shuffle(SpeedSensor.order)
        self.halt = threading.Event()
        self.chunks: list[float] = []

    def chunk(self, offset: int) -> float:
        total = 0.0
        for i in self.order[offset : offset + SENSOR_READS]:
            total += self.floats[i]
        for i in range(SENSOR_NUMPY_CALLS):
            u = np.asarray([1.0, float(i), 3.0])
            total += float(u @ self.matrix @ u)
        return total

    def run(self) -> None:
        for offset in itertools.cycle(range(0, SENSOR_FLOATS - SENSOR_READS, SENSOR_READS)):
            start = time.thread_time()
            self.chunk(offset)
            self.chunks.append(time.thread_time() - start)
            if self.halt.wait(SENSOR_PAUSE_S):
                return

    def speed(self) -> float:
        return REFERENCE_CHUNK_S / statistics.fmean(self.chunks)


@dataclass(frozen=True)
class Sample:
    wall: float  # seconds from spawn to wait4
    code: int  # exit code
    rss_kib: int  # the child's own peak resident set
    cpu: float  # the child's user + system seconds
    speed: float  # SpeedSensor.speed() over the child's life

    @property
    def scaled(self) -> float:
        """CPU seconds at the reference core speed."""
        return self.cpu * self.speed


class Launcher:
    """launcher.py in its own process, spawning children next to a SpeedSensor here.

    A child's peak RSS then starts from the launcher's small footprint, not
    from this process's. Use it as a context manager: leaving it ends the
    launcher and waits for it.
    """

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, argv: list[str], stdout_path: Path, core: int | None) -> Sample:
        """Run one child to completion on `core`, with a SpeedSensor on the same core."""
        if core is not None:
            os.sched_setaffinity(0, {core})  # this thread; the sensor inherits it
        sensor = SpeedSensor()
        sensor.start()
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stdout_path.with_suffix(".err")), "core": core}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
        finally:
            sensor.halt.set()
            sensor.join()
        if not reply:
            raise RuntimeError(f"launcher.py exited with code {self.proc.wait()}")
        child = json.loads(reply)
        return Sample(child["wall"], child["code"], child["rss_kib"], child["cpu"], sensor.speed())


def tail_summary(seconds: list[float]) -> str:
    """Sample count, and the highest percentile with at least ten samples beyond it."""
    n = len(seconds)
    if n < 20:
        return f"n={n}; no percentile above the median has ten samples beyond it"
    rank = n - 10
    return f"n={n}; p{100.0 * rank / n:.4g}={sorted(seconds)[rank - 1]:.6g} s (nearest rank, 10 samples beyond)"


def run_fresh(commands: list[workloads.Command], seconds: int, work: Path) -> tuple[dict, Tally]:
    circgeo = [sys.executable, "-m", "circgeo"]
    probe = circgeo + ["--help"]
    cores = itertools.cycle(CORES or [None])
    tally = Tally()
    samples: list[Sample] = []
    setup: list[Sample] = []
    done: list[int] = []

    with Launcher(child_env()) as launcher:

        def run(k: int) -> tuple[Sample, tuple[int, bytes, bytes]]:
            """The child's sample, and its (exit code, stdout, output file)."""
            command, out = commands[k], work / f"cmd{k}.out"
            clear_output(command)
            sample = launcher.spawn(circgeo + command.args, out, next(cores))
            return sample, (sample.code, out.read_bytes(), read_output(command))

        # Untimed first runs: bytecode and page caches fill once, and users do
        # not pay that on every run. Their outputs get the full reference check.
        # Untimed commands (the scale-exposed rows) run only here, for fail_frac.
        launcher.spawn(probe, work / "probe.out", next(cores))
        expected = Expected(commands, [run(k)[1] for k in range(len(commands))], tally)
        timed = [k for k, command in enumerate(commands) if command.timed]

        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(setup) < MIN_SETUP_SAMPLES:
            for k in timed:
                sample, output = run(k)
                expected.repeat(k, *output)
                samples.append(sample)
                done.append(expected.items[k])
                setup.append(launcher.spawn(probe, work / "probe.out", next(cores)))

    command_s = statistics.median(s.scaled for s in samples)
    setup_s = statistics.median(s.scaled for s in setup)
    metrics = {
        "command_s": (command_s, "s"),
        "items_per_s": (statistics.median(done) / (command_s - setup_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(s.rss_kib for s in samples) / 1024.0, "MB"),
    }
    record = {
        "command": {name: [getattr(s, name) for s in samples] for name in ("wall", "cpu", "speed", "scaled", "rss_kib")},
        "setup": {name: [getattr(s, name) for s in setup] for name in ("wall", "cpu", "speed", "scaled")},
    }
    (work / "samples.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"command_s samples: {tail_summary([s.scaled for s in samples])}")
    # Unscaled figures, for people: wall_s is what a user waits on this host now.
    walls = [s.wall for s in samples]
    print(f"wall_s = {statistics.median(walls):.6g} s; {tail_summary(walls)}")
    print(f"cpu_s = {statistics.median(s.cpu for s in samples):.6g} s (median child user + system time)")
    print(f"core speed = {statistics.median(s.speed for s in samples):.4g} of the reference (median)")
    print(f"setup samples: n={len(setup)}; unscaled wall {statistics.median(s.wall for s in setup):.6g} s")
    return metrics, tally


def import_times(env: dict[str, str]) -> tuple[float, float]:
    """Median (numpy, circgeo without numpy) cumulative import seconds from -X importtime.

    The circgeo time adds up the top-level circgeo entries of
    `import circgeo.cli`, so the import of cli and what it pulls in counts.
    """
    numpy_s, circgeo_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import circgeo.cli"],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        numpy_us = package_us = 0
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name, us = parts[2].strip(), int(parts[1])
            if name == "numpy":
                numpy_us = us
            # Unindented entries are imported by the -c statement itself:
            # circgeo.cli, and circgeo when the package does not import cli.
            if parts[2].startswith(" ") and not parts[2].startswith("  ") and name.split(".")[0] == "circgeo":
                package_us += us
        numpy_s.append(numpy_us * 1e-6)
        circgeo_s.append((package_us - numpy_us) * 1e-6)
    return statistics.median(numpy_s), statistics.median(circgeo_s)


def causal_character_us(seed: int) -> float:
    """Median microseconds per causal_character call on one 3-vector, in process."""
    from circgeo.core import CirculantMetric, causal_character

    metric = CirculantMetric(2.0, 0.5)
    vector = np.random.default_rng(seed).uniform(-10.0, 10.0, 3)
    timer = timeit.Timer(lambda: causal_character(metric, vector))
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(5, number)) / number * 1e6


def run_pass(cli, commands: list[workloads.Command]) -> tuple[float, list[tuple[int, bytes, bytes]]]:
    """One in-process pass over the commands: (seconds inside main, outputs)."""
    seconds, outputs = 0.0, []
    for command in commands:
        clear_output(command)
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(command.args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what an uncaught exception makes the interpreter exit with
            code = 1
        seconds += time.perf_counter() - start
        outputs.append((code, buffer.getvalue().encode("utf-8"), read_output(command)))
    return seconds, outputs


def run_traced(commands, seconds: int, work: Path, workload: str, seed: int) -> tuple[dict, Tally]:
    tally = Tally()
    numpy_s, circgeo_s = import_times(child_env())
    sys.path.insert(0, str(SRC))
    import circgeo
    import circgeo.cli as cli

    if SRC.resolve() not in Path(circgeo.__file__).resolve().parents:
        raise SystemExit(f"circgeo was imported from {circgeo.__file__}, not from {SRC}")
    us_per_call = causal_character_us(seed)

    # Untimed commands (the scale-exposed rows) run once, checked, for
    # fail_frac alone; the passes below run and trace only the timed ones,
    # so the layer numbers describe the commands that command_s times.
    untimed = [c for c in commands if not c.timed]
    commands = [c for c in commands if c.timed]
    Expected(untimed, run_pass(cli, untimed)[1], tally)
    _, first = run_pass(cli, commands)
    expected = Expected(commands, first, tally)
    items = max(sum(expected.items), 1)

    def repeat(outputs) -> None:
        for k, output in enumerate(outputs):
            expected.repeat(k, *output)

    untraced, traced, profiles, recorded = [], [], [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        tracer = Tracer()
        tracer.install()
        try:
            wall, outputs = run_pass(cli, commands)
        finally:
            tracer.uninstall()
        traced.append(wall)
        profiles.append(tracer.profile())
        repeat(outputs)
        if recorded is None:
            recorded = tracer  # its spans are written when the run ends
        wall, outputs = run_pass(cli, commands)
        untraced.append(wall)
        repeat(outputs)

    run_id = f"{workload}-seed{seed}-pass0"
    spans = recorded.write_spans(work / "spans.npz", run_id)
    first_profile = profiles[0]

    def median_over_passes(value) -> float:
        return statistics.median(value(p) for p in profiles)

    layer: dict[str, tuple[float, str]] = {}
    for name in sorted(set(first_profile.calls) | set(NAMED_FUNCTIONS)):
        layer[f"{name}.calls"] = (first_profile.calls.get(name, 0), "count")
        if name in recorded.checks:
            layer[f"{name}.s"] = (median_over_passes(lambda p: p.total_s[name]), "s")
        else:
            layer[f"{name}.self_s"] = (median_over_passes(lambda p: p.self_s.get(name, 0.0)), "s")
    for lay in LAYERS:
        members = [n for n, owner in recorded.layer_of.items() if owner == lay]
        layer[f"{lay}.calls"] = (sum(first_profile.calls[n] for n in members), "count")
        layer[f"{lay}.self_s"] = (median_over_passes(lambda p: sum(p.self_s[n] for n in members)), "s")
    completed = max(sum(expected.completed), 1)
    layer["core.as_vector.calls_per_item"] = (recorded.completed_calls("core.as_vector") / completed, "calls/item")
    layer["core.causal_character.us_per_call"] = (us_per_call, "us")
    layer["cli.bytes_written"] = (sum(len(o) + len(d) for _, o, d in first), "bytes")
    layer["setup.import_numpy_s"] = (numpy_s, "s")
    layer["setup.import_circgeo_s"] = (circgeo_s, "s")
    layer["trace.untraced_s"] = (statistics.median(untraced), "s")
    layer["trace.traced_s"] = (statistics.median(traced), "s")
    layer["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")

    record = {
        "workload": workload,
        "seed": seed,
        "run_id": run_id,
        "spans_file": "spans.npz",
        "spans": spans,
        "items_per_pass": items,
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in layer.items()},
    }
    (work / "layers.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, spans recorded: {spans}")
    for name, (value, unit) in layer.items():
        print(f"layer {name} = {value:.6g} {unit}")
    return layer, tally


def machine_line() -> str:
    blas = ",".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    return (
        f"machine nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={np.__version__} blas_env={blas}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the circgeo command line.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES), help="input sizes; smoke is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "circgeo" / "__init__.py").is_file():
        print(f"error: no circgeo sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = workloads.build(args.workload, args.seed, args.size, work)
    print(machine_line())
    print(f"workload {args.workload} seed={args.seed} size={args.size} commands={len(commands)} trace={args.trace}")
    for command in commands:
        print("command: circgeo " + " ".join(command.args))

    if args.trace:
        measured, tally = run_traced(commands, args.seconds, work, args.workload, args.seed)
    else:
        measured, tally = run_fresh(commands, args.seconds, work)

    metrics = {}
    for entry in wanted:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"{entry['name']} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{entry['name']} = {value:.6g} {unit}")
    attempted = max(tally.attempted, 1)
    print(f"fail_frac = {tally.failed / attempted:.6g} (failed {tally.failed} of {attempted} items)")
    for key, value in tally.notes.items():
        print(f"note {key} = {value}")
    for error in tally.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"correct": not tally.errors, "attempted": attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
