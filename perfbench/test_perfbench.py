"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from checks import max_cycle_geomean  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

cli = run.import_cli()


def _inputs(cmds: list[Command]) -> list[bytes]:
    """Everything a round hands the program: argv plus the matrix files."""
    blobs = []
    for c in cmds:
        blobs.append("\0".join(Path(a).name if "/" in a else a for a in c.argv).encode())
        blobs += [Path(a).read_bytes() for a in c.argv if a.endswith(".csv") and Path(a).exists()]
    return blobs


@pytest.fixture
def work(request):
    """A fresh directory inside the checkout, like the benchmark's own work."""
    path = run.OUT / "test-work" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    for sub in "abc":
        (path / sub).mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smallest_size_passes_every_check(name, work):
    cmd = WORKLOADS[name].make_warmup(0, work)
    log = run.CommandLog()
    log.execute(cli, cmd)
    assert log.failures == []


def test_analyze_small_smallest_round_commands_pass(work):
    cmds = [c for name in ("analyze_small", "analyze_sparse")
            for c in WORKLOADS[name].make_round(0, 0, work) if "-n3-" in c.argv[1]]
    assert len(cmds) == 2 and all("--oracle" in c.argv for c in cmds)
    log = run.CommandLog()
    for c in cmds:
        log.execute(cli, c)
    assert log.attempted == 2 and log.failures == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, work):
    w = WORKLOADS[name]
    a = _inputs(w.make_round(5, 1, work / "a"))
    b = _inputs(w.make_round(5, 1, work / "b"))
    c = _inputs(w.make_round(6, 1, work / "c"))
    assert a == b
    assert a != c


def test_scaled_mu_counts_as_failure(work):
    good = WORKLOADS["analyze_small"].make_warmup(3, work)

    def tampered() -> list[str]:
        report = json.loads(good.out.read_text())
        report["mu"] *= 1.01
        good.out.write_text(json.dumps(report))
        return good.check()

    log = run.CommandLog()
    log.execute(cli, good)
    assert log.failed == 0
    log.execute(cli, Command(good.argv, good.out, tampered))
    assert log.attempted == 2 and log.failed == 1
    assert "mu" in log.failures[0]


def test_study_check_catches_missing_row(work):
    cmd = WORKLOADS["study_tol"].make_warmup(0, work)
    assert run.run_command(cli, cmd.argv)[0] == 0
    assert cmd.check() == []
    lines = cmd.out.read_text().splitlines()
    cmd.out.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in cmd.check())


def test_nonzero_exit_counts_as_failure(work):
    bad = work / "negative.csv"
    bad.write_text("-1,0\n0,1\n")
    log = run.CommandLog()
    log.execute(cli, Command(["analyze", str(bad)], work / "x.json", lambda: []))
    assert log.failed == 1 and "exit code 2" in log.failures[0]


def _brute_geomean(a: np.ndarray) -> float:
    n = a.shape[0]
    best = 0.0
    for k in range(1, n + 1):
        for cyc in permutations(range(n), k):
            if cyc[0] != min(cyc):
                continue
            prod = np.prod([a[cyc[i], cyc[(i + 1) % k]] for i in range(k)])
            if prod > 0:
                best = max(best, prod ** (1.0 / k))
    return best


def test_max_cycle_reference_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        assert max_cycle_geomean(a) == pytest.approx(_brute_geomean(a), rel=1e-12)
    assert max_cycle_geomean(np.triu(np.ones((4, 4)), 1)) == 0.0


def _traced(cmds: list[Command]) -> tuple[Tracer, float]:
    tracer = Tracer()
    tracer.install()
    try:
        wall = 0.0
        for i, c in enumerate(cmds):
            tracer.begin_command(i)
            rc, dt, _ = run.run_command(cli, c.argv)
            assert rc == 0
            wall += dt
    finally:
        tracer.uninstall()
    return tracer, wall


def test_span_self_times_fit_inside_parents(work):
    cmds = [WORKLOADS["analyze_small"].make_warmup(1, work / "a"),
            WORKLOADS["study_size"].make_warmup(1, work / "b")]
    tracer, wall = _traced(cmds)
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    assert all(v >= 0 for v in selfs.values())
    children: dict[int, float] = {}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            assert p.start <= s.start and s.end <= p.end
            assert s.command == p.command
            if p.thread == s.thread:
                children[p.id] = children.get(p.id, 0.0) + selfs[s.id]
    for pid, total in children.items():
        assert total <= by_id[pid].duration + 1e-9
    threads = {s.thread for s in spans if s.name == "balancer.heuristic_balance"}
    assert len(threads) >= 1
    metrics = layer_metrics(spans, wall)
    assert metrics["nubar.nubar_exact.calls"] > 0
    assert metrics["spectral.nu_lower_bound.subsets"] == 31  # all subsets of 5 nodes
    assert 0 < metrics["trace.coverage"] <= 1


def test_tracer_patches_imported_names_and_restores_them():
    from nu_analyzer import balancer, spectral

    original = spectral.spectral_radius
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.spectral_radius is spectral.spectral_radius is not original
        assert balancer.nubar_exact.__wrapped__ is cli.nubar_exact.__wrapped__
    finally:
        tracer.uninstall()
    assert cli.spectral_radius is spectral.spectral_radius is original


def test_missing_function_is_reported_absent():
    rounds = [{m: 1.0 for m, _, _ in PER_LAYER}]
    wrapped = {m.rpartition(".")[0] for m, _, _ in PER_LAYER} | {"cli.main", "balancer.run_trials"}
    metrics, absent = summarize(rounds, wrapped - {"nubar.nubar_exact"}, {})
    assert absent == ["nubar.nubar_exact.calls", "nubar.nubar_exact.self_s"]
    assert set(metrics) == {m for m, _, _ in PER_LAYER} - set(absent)


def test_host_slowness_samples_a_share_of_each_command():
    host = hostspeed.Slowness(share=0.1)
    host.sample(0.0)
    assert host.units == 1
    host.sample(0.2)
    assert host.seconds >= 0.02 and host.units > 2
    assert 0 < host.factor() < 100


def test_tail_leaves_ten_samples_beyond():
    for w in WORKLOADS.values():
        lat = [float(i) for i in range(w.min_commands)]
        value = run.tail(lat, w.tail_pct)
        assert sum(v > value for v in lat) >= 10


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert spec["command"][1:] == ["perfbench/run.py"] and spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", ["analyze_small", "study_size"])
def test_outputs_are_byte_identical_across_runs(name, work):
    cmd = WORKLOADS[name].make_warmup(2, work)
    outputs = []
    for _ in range(2):
        assert run.run_command(cli, cmd.argv)[0] == 0
        outputs.append(cmd.out.read_bytes())
    assert outputs[0] == outputs[1]
