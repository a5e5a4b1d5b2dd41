"""Benchmark of the nu-analyzer command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from ``src``. One
client issues ``analyze`` or ``bench`` commands through
``nu_analyzer.cli.main(argv)`` in a closed loop, each only after the previous
one returned, on inputs generated from ``--seed``. Every command's output is
checked outside the timed region, and a failed check counts as a failed
command. Commands run in whole rounds (see workloads.py) until at least
``--seconds`` of command time and enough samples for ``cmd_tail_s`` are in.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` replays round 0
alternately untraced and traced, and prints per-layer metrics per round.
Results, the per-layer table and the spans go to ``.perfbench_out/``. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # Load: one process; bench's worker pool is capped at the usable CPUs and
    # numpy's BLAS is single-threaded, so no other threads compete. Set before
    # numpy is imported; set-up probes inherit it.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ["NU_ANALYZER_THREADS"] = str(len(os.sched_getaffinity(0)))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SETUP_CALIBRATION_S = 0.1

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics, summarize  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402


def import_cli():
    sys.path.insert(0, str(SRC))
    from nu_analyzer import cli

    return cli


def run_command(cli, argv: list[str]) -> tuple[int, float, str]:
    """One command; returns exit code, wall seconds and captured log output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - start
    return rc, wall, err.getvalue()


class CommandLog:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def execute(self, cli, cmd: Command) -> float:
        rc, wall, log = run_command(cli, cmd.argv)
        self.latencies.append(wall)
        if rc != 0:
            last = log.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {rc}: {last[0]}"]
        else:
            problems = cmd.check()
        if problems:
            self.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
        return wall


def warm_up(cli, workload: Workload, seed: int, work: Path) -> None:
    warm = workload.make_warmup(seed, work)
    rc, _, log = run_command(cli, warm.argv)
    if rc != 0:
        raise RuntimeError(f"warm-up command failed with exit code {rc}:\n{log}")


def setup_probe(workload: Workload, seed: int, work: Path) -> int:
    """Child side of one set-up measurement: set up, say "ready", then report
    the host's slowness right after, on the same process."""
    work.mkdir(parents=True, exist_ok=True)
    cli = import_cli()
    workload.make_round(seed, 0, work)
    warm_up(cli, workload, seed, work)
    print("ready", flush=True)
    print(hostspeed.measure(SETUP_CALIBRATION_S), flush=True)
    return 0


def measure_setup(workload: Workload, seed: int, work: Path) -> tuple[float, float]:
    """Time from spawning a fresh interpreter until it could issue the first
    timed command, at reference host speed and as measured; the medians of
    SETUP_PROBES probes."""
    times, raw = [], []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                "--seed", str(seed), "--setup-probe", str(work / f"probe{i}")]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}:\n{err}")
        raw.append(wall)
        times.append(wall / float(out))
    return statistics.median(times), statistics.median(raw)


def digest(cmds: list[Command]) -> str:
    """SHA-256 over the outputs of one round, in command order."""
    h = hashlib.sha256()
    for c in cmds:
        h.update(c.out.read_bytes() if c.out.exists() else b"<missing>")
    return h.hexdigest()


def tail(latencies: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def timed_run(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict, CommandLog]:
    setup_s, raw_setup_s = measure_setup(workload, seed, work)
    cli = import_cli()
    warm_up(cli, workload, seed, work)
    log = CommandLog()
    host = hostspeed.Slowness()
    round_digest = ""
    r = 0
    while r == 0 or sum(log.latencies) < seconds or log.attempted < workload.min_commands:
        rdir = work / f"round{r}"
        rdir.mkdir()
        cmds = workload.make_round(seed, r, rdir)
        for cmd in cmds:
            host.sample(log.execute(cli, cmd))
        if r == 0:
            round_digest = digest(cmds)
        shutil.rmtree(rdir)
        r += 1
    passed = log.attempted - log.failed
    slowness = host.factor()
    latencies = [w / slowness for w in log.latencies]  # at reference host speed
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "cmds_per_s": {"value": passed / sum(latencies), "unit": "1/s"},
        "cmd_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "cmd_tail_s": {"value": tail(latencies, workload.tail_pct), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    timed = sum(log.latencies)
    info = {
        "cmd_tail_pct": workload.tail_pct,
        "rounds": r,
        "timed_s": timed,
        "host_slowness": slowness,
        "as_measured": {
            "setup_s": raw_setup_s,
            "cmds_per_s": passed / timed,
            "cmd_p50_s": statistics.median(log.latencies),
            "cmd_tail_s": tail(log.latencies, workload.tail_pct),
        },
        "round0_sha256": round_digest,
        "latencies_s": log.latencies,
    }
    return metrics, info, log


def traced_run(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict, CommandLog]:
    cli = import_cli()
    warm_up(cli, workload, seed, work)
    rdir = work / "round0"
    rdir.mkdir()
    cmds = workload.make_round(seed, 0, rdir)
    log = CommandLog()
    tracer = Tracer()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    rounds: list[dict[str, float]] = []
    command = 0
    while not traced_walls or sum(plain_walls) + sum(traced_walls) < seconds:
        plain_walls.append(sum(log.execute(cli, cmd) for cmd in cmds))
        first_span = len(tracer.spans)
        tracer.install()
        try:
            wall = 0.0
            for cmd in cmds:
                command += 1
                tracer.begin_command(command)
                wall += log.execute(cli, cmd)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        rounds.append(layer_metrics(tracer.spans[first_span:], wall))
    extra = {
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls),
        "fail_ratio": log.failed / log.attempted,
    }
    metrics, absent = summarize(rounds, tracer.wrapped, extra)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.csv"
    tracer.write(spans_path)
    info = {
        "traced_rounds": len(rounds),
        "absent": absent,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info, log


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "nu_analyzer" / "cli.py").is_file():
        print(f"error: {SRC / 'nu_analyzer'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload, args.seed, Path(args.setup_probe))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        run = traced_run if args.trace else timed_run
        metrics, info, log = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in log.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    fail_ratio = log.failed / log.attempted
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "params": workload.params, **result, "fail_ratio": fail_ratio, **info,
              "failures": log.failures}
    if args.trace:
        record["per_layer_table"] = [
            {"metric": m, "unit": u, "better": b,
             "value": metrics[m]["value"] if m in metrics else None}
            for m, u, b in PER_LAYER
        ]
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"workload {workload.name} seed {args.seed}: {log.attempted} commands, {log.failed} failed")
    for key, value in info.items():
        if key != "latencies_s":
            print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "fail_ratio" not in metrics:  # gated metrics must be non-zero, so it is printed only
        print(f"  fail_ratio = {fail_ratio:.6g} 1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
