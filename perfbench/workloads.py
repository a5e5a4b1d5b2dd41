"""Seeded workloads: each round is a list of CLI commands over generated inputs.

A workload's inputs depend only on the benchmark seed and the round number.
Rounds have a fixed composition, so a run made of whole rounds has the same
mix of sizes whatever the host speed, and the seed only changes entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import check_analyze, check_study

THETAS = "0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
TOL_GRID = ",".join(repr(float(t)) for t in np.logspace(-1, -6, 11))
SIZE_NS = "2,4,8,16,32,64,128"
MAX_ITER = 1000


@dataclass(frozen=True)
class Command:
    argv: list[str]
    out: Path
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    # cmd_tail_s percentile; min_commands leaves >= 10 samples beyond it. Chosen
    # so that it, like the median, falls inside a group of same-size commands
    # rather than on the edge between two, where it would read a group extreme.
    tail_pct: int
    make_round: Callable[[int, int, Path], list[Command]]
    make_warmup: Callable[[int, Path], Command]
    min_commands: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_commands", math.ceil(10 / (1 - self.tail_pct / 100)))


def _write_matrix(m: np.ndarray, path: Path) -> None:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in m))


def _analyze(m: np.ndarray, stem: Path, oracle: bool) -> Command:
    src, out = stem.with_suffix(".csv"), stem.with_suffix(".json")
    _write_matrix(m, src)
    argv = ["analyze", str(src), "--out", str(out)] + (["--oracle"] if oracle else [])
    return Command(argv, out, lambda: check_analyze(src, out))


def _small_matrix(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    m = rng.random((n, n))
    return m if density >= 1.0 else m * (rng.random((n, n)) < density)


# Dense U[0,1) matrices are positive, hence primitive. Sparse ones are often
# reducible, where spectral_radius returns wrong mu (ROADMAP item 1) on about
# 1% of reports, so they form the ungated analyze_sparse workload. Sparse
# reports also cost 2-8x more than dense ones of the same n and vary with the
# support pattern (at n=12: 3.6-8.5 s over ten seeds, dense 1.3-1.7 s), so
# sparse inputs stop at n=9.
SMALL_SIZES = {"dense": (1.0, range(2, 13)), "sparse": (0.4, range(3, 10))}


def analyze_small_round(label: str) -> Callable[[int, int, Path], list[Command]]:
    k = list(SMALL_SIZES).index(label)
    density, ns = SMALL_SIZES[label]

    def make(seed: int, r: int, work: Path) -> list[Command]:
        return [
            _analyze(_small_matrix(np.random.default_rng([seed, r, n, k]), n, density),
                     work / f"r{r}-n{n}-{label}", oracle=n <= 4)
            for n in ns
        ]

    return make


def analyze_small_warmup(seed: int, work: Path) -> Command:
    # dense and without the oracle, so the warm-up costs about the same on every seed
    m = _small_matrix(np.random.default_rng([seed, 1 << 20]), 5, 1.0)
    return _analyze(m, work / "warmup", oracle=False)


LARGE_PER_ROUND = 3


def analyze_large_round(seed: int, r: int, work: Path) -> list[Command]:
    """ROADMAP item 1 fuzz distribution; every third matrix has wide range."""
    cmds = []
    for k in range(LARGE_PER_ROUND):
        rng = np.random.default_rng([seed, r, k])
        n = int(rng.integers(20, 65))
        dens = rng.uniform(0.03, 0.5)
        m = rng.random((n, n)) * (rng.random((n, n)) < dens)
        if k % 3 == 0:
            m = m * np.exp(rng.uniform(-20, 20, (n, n)))
        cmds.append(_analyze(m, work / f"r{r}-k{k}-n{n}", oracle=False))
    return cmds


def analyze_large_warmup(seed: int, work: Path) -> Command:
    m = _small_matrix(np.random.default_rng([seed, 1 << 20]), 20, 0.3)
    return _analyze(m, work / "warmup", oracle=False)


def _bench(mode: str, ns: str, tols: str, trials: int, bench_seed: int, out: Path) -> Command:
    argv = [
        "bench", "--mode", mode, "--ns", ns, "--tols", tols, "--thetas", THETAS,
        "--trials", str(trials), "--max-iter", str(MAX_ITER),
        "--seed", str(bench_seed), "--out", str(out),
    ]
    spec = {
        "ns": [int(v) for v in ns.split(",")],
        "thetas": [float(v) for v in THETAS.split(",")],
        "tols": [float(v) for v in tols.split(",")],
        "trials": trials,
        "max_iter": MAX_ITER,
    }
    return Command(argv, out, lambda: check_study(out, spec))


def _bench_seed(seed: int, r: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, r, k]).generate_state(1)[0])


STUDY_PER_ROUND = 5
STUDY_TRIALS = 2


def study_round(mode: str, ns: str, tols: str) -> Callable[[int, int, Path], list[Command]]:
    def make(seed: int, r: int, work: Path) -> list[Command]:
        return [
            _bench(mode, ns, tols, STUDY_TRIALS, _bench_seed(seed, r, k), work / f"r{r}-k{k}.csv")
            for k in range(STUDY_PER_ROUND)
        ]

    return make


def study_warmup(mode: str, tols: str) -> Callable[[int, Path], Command]:
    def make(seed: int, work: Path) -> Command:
        return _bench(mode, "8", tols, STUDY_TRIALS, _bench_seed(seed, 1 << 20, 0), work / "warmup.csv")

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze_small",
            "exhaustive subset path on dense n=2..12: thousands of tiny spectral_radius calls "
            "per report set the speed; the only gated workload that runs nu_oracle (n <= 4)",
            {"density": 1.0, "n": "2..12", "oracle": "n <= 4", "entries": "U[0,1)",
             "commands_per_round": 11},
            85,
            analyze_small_round("dense"),
            analyze_small_warmup,
        ),
        Workload(
            "analyze_sparse",
            "exhaustive subset path on sparse, often reducible n=3..9, where wrong mu occurs "
            "(ROADMAP item 1); not gated",
            {"density": 0.4, "n": "3..9", "oracle": "n <= 4", "entries": "U[0,1)",
             "commands_per_round": 7},
            80,
            analyze_small_round("sparse"),
            analyze_small_warmup,
        ),
        Workload(
            "analyze_large",
            "greedy subset path on the ROADMAP item 1 fuzz distribution, the input class "
            "where wrong and unconverged mu occur",
            {"n": "U{20..64}", "density": "U(0.03, 0.5)",
             "wide_range": "every third matrix times exp(U(-20, 20))",
             "commands_per_round": LARGE_PER_ROUND},
            50,
            analyze_large_round,
            analyze_large_warmup,
        ),
        Workload(
            "study_tol",
            "bench --mode tol at n=128 with two trials per command on the thread pool: "
            "heuristic_balance dominates, nubar_exact second",
            {"mode": "tol", "ns": "128", "tols": "logspace(-1, -6, 11)", "thetas": THETAS,
             "trials": STUDY_TRIALS, "commands_per_round": STUDY_PER_ROUND},
            60,
            study_round("tol", "128", TOL_GRID),
            study_warmup("tol", TOL_GRID),
        ),
        Workload(
            "study_size",
            "bench --mode size over n=2..128: the reference nubar_exact solve, repeated for "
            "every theta, dominates; the only study where nubar does most of the work",
            {"mode": "size", "ns": SIZE_NS, "tols": "1e-3", "thetas": THETAS,
             "trials": STUDY_TRIALS, "commands_per_round": STUDY_PER_ROUND},
            60,
            study_round("size", SIZE_NS, "0.001"),
            study_warmup("size", "0.001"),
        ),
    )
}
