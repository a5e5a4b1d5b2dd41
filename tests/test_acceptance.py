"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from nu_analyzer import (
    balance_residuals,
    balanced_solution,
    certify_optimality,
    heuristic_balance,
    mu,
    nu_2x2,
    nu_lower_bound,
    nu_oracle,
    nubar_exact,
    phi_view,
    ring_matrix,
    spectral_radius,
)
from nu_analyzer.balancer import run_trials, trial_matrix
from nu_analyzer.cli import grid_records

from helpers import enum_max_cycle_mean, mixed_corpus, nubar_lp, positive_diagonal

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"


def corpus_200():
    return mixed_corpus(seed=1234, count=200, n_min=2, n_max=6)


def test_criterion_1_ring_exactness():
    start = time.monotonic()
    for n in range(2, 11):
        ring = ring_matrix(np.ones(n))
        assert nubar_exact(ring).value == pytest.approx(1.0, abs=1e-9)
        assert mu(ring) == pytest.approx(1.0, abs=1e-8)
        assert nu_lower_bound(ring).bound == pytest.approx(1.0 / n, abs=1e-6)
        if n <= 4:
            assert nu_oracle(ring).value == pytest.approx(1.0 / n, abs=1e-4)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: ring exactness for n=2..10 ({elapsed:.2f}s)")


def test_criterion_2_closed_form_2x2():
    start = time.monotonic()
    rng = np.random.default_rng(20240501)
    for _ in range(200):
        x, y = rng.uniform(0.0, 1.0, size=2)
        m = np.array([[x, 1.0], [1.0, y]])
        closed = nu_2x2(m)
        oracle = nu_oracle(m)
        assert closed.value == pytest.approx(oracle.value, rel=1e-4)
        rho = spectral_radius(closed.witness_delta[:, None] * m).rho
        assert rho == pytest.approx(1.0, abs=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 200 closed-form/oracle agreements ({elapsed:.2f}s)")


def test_criterion_3_nubar_oracle_equivalence():
    start = time.monotonic()
    for m in corpus_200():
        exact = nubar_exact(m).value
        assert exact == pytest.approx(enum_max_cycle_mean(m), rel=1e-10, abs=1e-14)
        assert exact == pytest.approx(nubar_lp(m).value, rel=1e-7, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3 PASS: cycle-enumeration and LP agreement on 200 matrices ({elapsed:.2f}s)")


def test_criterion_4_sandwich_suite():
    slack = 1e-6
    for m in corpus_200():
        n = m.shape[0]
        lower = nu_lower_bound(m).bound
        nb = nubar_exact(m).value
        rho = mu(m)
        assert lower <= nb * (1 + slack) + 1e-12
        assert nb <= rho * (1 + slack) + 1e-12
        if n <= 3:
            nu = nu_oracle(m).value
            assert lower <= nu * (1 + 1e-4) + 1e-9
            assert nu <= nb * (1 + slack) + 1e-9
            assert rho <= n * nu * (1 + 1e-4) + 1e-9
    records = grid_records(11)
    assert len(records) == 11 ** 3
    for r in records:
        assert 1.0 - slack <= r.ratio_nubar_nu <= 2.0 + slack
        assert r.nu <= r.nubar * (1 + slack) + 1e-12
        assert r.nubar <= r.mu * (1 + slack) + 1e-12
        assert r.mu <= 2 * r.nu * (1 + slack) + 1e-12
        if max(r.x, r.y) >= r.w:  # diagonally maximal under some scaling
            assert r.nubar == pytest.approx(r.nu, abs=1e-9)
    print("criterion 4 PASS: sandwich inequalities on corpus and 1331 grid records")


def test_criterion_5_invariance_suite():
    rng = np.random.default_rng(555)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = rng.random((n, n))
        d = positive_diagonal(rng, n)
        a = float(rng.uniform(0.5, 2.0))
        scaled = a * m * d[:, None] / d[None, :]
        base = nubar_exact(m)
        transformed = nubar_exact(scaled)
        assert transformed.value == pytest.approx(a * base.value, rel=1e-9)
        assert transformed.witness_cycle == base.witness_cycle
        assert spectral_radius(scaled).rho == pytest.approx(
            a * spectral_radius(m).rho, rel=1e-9
        )
    print("criterion 5 PASS: scaling/similarity invariance on 100 seeded triples")


def test_criterion_6_oscillation_reproduction():
    m = np.array([[0.0, 1.0], [0.25, 0.0]])  # x = 0.5
    full = heuristic_balance(m, theta=1.0, max_iter=100, tol=1e-9)
    assert tuple(full.iterations[1].d) == (0.5, 2.0)
    assert full.oscillating and not full.converged

    half = heuristic_balance(m, theta=0.5, max_iter=200, tol=1e-9)
    assert half.converged
    assert half.updates <= 200
    assert half.objective == pytest.approx(0.5, rel=1e-3)
    print("criterion 6 PASS: period-2 orbit flagged and half-step converges to 0.5")


def test_criterion_7_convergence_study():
    start = time.monotonic()
    thetas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    tol_grid = np.logspace(-1, -4, 7)
    failures = []
    optima = [nubar_exact(trial_matrix(128, 777, trial)).value for trial in range(100)]
    by_theta = run_trials(n=128, trials=100, thetas=thetas, stop_tol=1e-4, max_iter=1000, seed=777)
    for theta, records in zip(thetas, by_theta):
        for rec in records:
            within = rec.iterations_to(1e-3)
            optimum = optima[rec.trial]
            gap = abs(rec.final_objective - optimum) / max(optimum, 1e-300)
            if within is None or within > 1000 or gap > 1e-2:
                failures.append((theta, rec.trial, within, gap))
        counts = [
            max(
                (r.iterations_to(tol) or np.inf)
                for r in records
            )
            for tol in tol_grid
        ]
        assert counts == sorted(counts), f"iteration counts not monotone for theta={theta}"
    if failures:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        for theta, trial, within, gap in failures:
            m = trial_matrix(128, 777, trial)
            out = ARTIFACT_DIR / f"nonconvergence_theta{theta}_trial{trial}.csv"
            np.savetxt(out, m, delimiter=",")
        pytest.fail(
            f"{len(failures)} trials failed to converge; matrices saved to {ARTIFACT_DIR}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 7 PASS: 800 trials converge at n=128, monotone in tolerance ({elapsed:.1f}s)")


def test_criterion_8_certificate_soundness():
    checked = 0
    for m in corpus_200():
        result = balanced_solution(m)
        if result.value == 0.0:
            continue  # acyclic support
        checked += 1
        d = result.scaling.d
        assert certify_optimality(m, d)
        assert float(balance_residuals(m, d).max()) <= 1e-8
        base = float(phi_view(m, d).matrix.max())
        if len(result.witness_cycle) >= 2:
            # moving any node of a genuine cycle re-weights its incoming and
            # outgoing tight entries in opposite directions
            for k in [i - 1 for i in result.witness_cycle]:
                for factor in (1.1, 0.9):
                    perturbed = d.copy()
                    perturbed[k] *= factor
                    bumped = float(phi_view(m, perturbed).matrix.max())
                    assert bumped > base * 1.05, (
                        "perturbing a witness-cycle coordinate must raise the objective"
                    )
        else:
            # a self-loop witness is invariant to scaling: the optimum is
            # flat, and the certificate must survive the perturbation
            k = result.witness_cycle[0] - 1
            for factor in (1.1, 0.9):
                perturbed = d.copy()
                perturbed[k] *= factor
                view = phi_view(m, perturbed)
                assert float(view.matrix.max()) >= base * (1 - 1e-9)
        # no single-coordinate perturbation can beat the optimum
        for k in range(m.shape[0]):
            for factor in (1.1, 0.9):
                perturbed = d.copy()
                perturbed[k] *= factor
                view = phi_view(m, perturbed)
                if view.feasible:
                    assert float(view.matrix.max()) >= base * (1 - 1e-9)
    assert checked > 100
    print(f"criterion 8 PASS: certificates and balance residuals on {checked} cyclic matrices")
