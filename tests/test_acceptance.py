"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest

from convrate import (
    MkConstraint,
    build_robustness_abstraction,
    check_guarantee,
    cholesky,
    co_simulate,
    cost_transform,
    eigenvalues,
    enumerate_mk_sequences,
    lyapunov_abstraction,
    mk_alpha_tilde,
    mk_rho_tilde,
    mk_verdict,
    random_mk_sequence,
    run_schedule,
    skip_count_bound,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    worst_case_sequence,
)
from convrate import counterexample
from convrate.cli import run as cli_run
from convrate.scheduler import ExponentialTarget, PracticalTarget, greedy_policy
from convrate.sequences import averaged_spectral_radius
from conftest import random_spd, random_stable_matrix, two_mode_system, valid_rho_for

DEMO = counterexample.system()


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")


# ---------------------------------------------------------------------------
# shared randomized suite (criteria 5, 6, 9)

@pytest.fixture(scope="module")
def randomized_suite():
    guarantee_violations = []
    transfer_violations = []
    cost_violations = []
    trials = 0
    proven_checked = 0
    started = time.time()
    for seed in range(1000):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(2, 5))
        w_bar = float(rng.uniform(0.0, 0.5))
        Q = random_spd(rng, n)
        A0 = random_stable_matrix(rng, n, max_radius=0.9)
        A1 = A0 + rng.uniform(0.1, 1.5) * rng.standard_normal((n, n)) / math.sqrt(n)
        from convrate import SystemModel

        system = SystemModel(modes={0: A0, 1: A1}, disturbance_bound=w_bar,
                             cost_weight=Q)
        rho = valid_rho_for(A0, rng)
        routes = [build_robustness_abstraction(system, rho),
                  lyapunov_abstraction(system)]
        K = int(rng.integers(2, 6))
        mk = MkConstraint(int(rng.integers(1, K + 1)), K)
        horizon = 100
        seq = random_mk_sequence(mk, horizon, rng)
        w = rng.standard_normal((horizon, n))
        w *= (w_bar * rng.random(horizon) / np.maximum(np.linalg.norm(w, axis=1), 1e-12))[:, None]
        x0 = rng.standard_normal(n)
        x0_norm = float(np.linalg.norm(x0))
        for params in routes:
            trials += 1
            trace = co_simulate(system, params, seq, x0, w)
            outcome = check_guarantee(trace, rel_tol=1e-9)
            if not outcome.holds:
                guarantee_violations.append((seed, params.method, outcome.first_violation))
            measured = np.einsum("ki,ij,kj->k", trace.x, Q, trace.x)
            if np.any(measured > trace.cost_bound * (1 + 1e-9)):
                cost_violations.append((seed, params.method))
            verdict = mk_verdict(params, mk)
            if verdict.proven_stable:
                proven_checked += 1
                worst = worst_case_sequence(mk, horizon)
                worst_trace = co_simulate(system, params, worst, x0)
                bound = params.alpha * verdict.alpha_tilde
                for k in range(len(worst_trace)):
                    envelope = bound * verdict.rho_tilde**k * x0_norm
                    if worst_trace.x_norm[k] > envelope * (1 + 1e-9):
                        transfer_violations.append((seed, params.method, k))
                        break
    return {
        "trials": trials,
        "elapsed": time.time() - started,
        "guarantee_violations": guarantee_violations,
        "transfer_violations": transfer_violations,
        "cost_violations": cost_violations,
        "proven_checked": proven_checked,
    }


def test_criterion_01_counterexample_closed_forms():
    a, c = 0.5, 1000.0
    started = time.time()
    ok_norm0 = abs(spectral_norm(DEMO.modes[0]) - math.sqrt(2) * a) <= 1e-9
    ok_norm1 = abs(spectral_norm(DEMO.modes[1]) - math.sqrt(0.25 + 1e6)) <= 1e-9
    ok_prod = abs(spectral_norm(DEMO.modes[0] @ DEMO.modes[1])
                  - math.sqrt(a**4 + a**2)) <= 1e-9
    eigs = sorted(np.abs(eigenvalues(
        DEMO.modes[1] @ DEMO.modes[1] @ DEMO.modes[0] @ DEMO.modes[0])))
    ok_eigs = (eigs[0] <= 1e-6 and eigs[1] <= 1e-6 and abs(eigs[2] - 250.0625) <= 1e-6)
    elapsed = time.time() - started
    ok = ok_norm0 and ok_norm1 and ok_prod and ok_eigs and elapsed < 1.0
    report(1, "counterexample norms and eigenvalues", ok, f"{elapsed:.3f}s")
    assert ok_norm0 and ok_norm1 and ok_prod and ok_eigs
    assert elapsed < 1.0


def test_criterion_02_brute_force_averaged_radius():
    started = time.time()
    r12 = averaged_spectral_radius(DEMO, MkConstraint(1, 2), 24)
    r24 = averaged_spectral_radius(DEMO, MkConstraint(2, 4), 24)
    elapsed = time.time() - started
    attained = 250.0625**0.25
    strict_floor = 250.0**0.25
    ok_12 = 0.70 <= r12.rho_hat <= 0.72 and r12.rho_hat < 0.9
    # the periodic pattern attains 250.0625^(1/4) exactly; the strict paper
    # bound (> 250^(1/4) = 3.97635...) is what instability rests on
    ok_24 = (3.976 <= r24.rho_hat <= 3.977
             and r24.rho_hat >= attained - 1e-12
             and r24.rho_hat > strict_floor)
    ok = ok_12 and ok_24 and elapsed <= 300.0
    report(2, "brute-force averaged spectral radius at L=24", ok,
           f"(1,2): {r12.rho_hat:.4f}, (2,4): {r24.rho_hat:.6f}, {elapsed:.1f}s")
    assert ok_12, r12
    assert ok_24, r24
    assert elapsed <= 300.0


def test_criterion_03_mk_closed_forms():
    ok = True
    rng = np.random.default_rng(77)
    for _ in range(200):
        rho0 = float(rng.uniform(0.05, 0.95))
        rho1 = float(rho0 + rng.uniform(0.0, 2.0))
        K = int(rng.integers(1, 13))
        m = int(rng.integers(0, K + 1))
        mk = MkConstraint(m, K)
        ok &= mk_rho_tilde(rho0, rho1, MkConstraint(K, K)) == rho0
        ok &= mk_rho_tilde(rho0, rho1, MkConstraint(0, K)) == rho1
        rho_t = mk_rho_tilde(rho0, rho1, mk)
        alpha_t = mk_alpha_tilde(rho0, rho1, mk)
        ok &= math.isclose(alpha_t, (rho_t / rho0) ** K, rel_tol=1e-10)
        for c in (2, 3, 5):
            ok &= mk_rho_tilde(rho0, rho1, mk.scaled(c)) == rho_t
            ok &= math.isclose(mk_alpha_tilde(rho0, rho1, mk.scaled(c)),
                               alpha_t**c, rel_tol=1e-10)
    report(3, "(m,K) closed forms, identity, scale invariance", bool(ok))
    assert ok


def test_criterion_04_skip_count_bound_tightness():
    ok = True
    for K in range(1, 6):
        for m_bar in range(K + 1):
            mk = MkConstraint(K - m_bar, K)
            prefix_max = [0] * 13
            for seq in enumerate_mk_sequences(mk, 12):
                total = 0
                for k, sym in enumerate(seq, start=1):
                    total += sym
                    if total > prefix_max[k]:
                        prefix_max[k] = total
            worst = worst_case_sequence(mk, 12)
            for k in range(13):
                ok &= skip_count_bound(mk, k) == prefix_max[k]
                ok &= sum(worst[:k]) == skip_count_bound(mk, k)
    report(4, "skip-count bound tight and attained prefix-wise", bool(ok))
    assert ok


def test_criterion_05_guarantee_property_suite(randomized_suite):
    suite = randomized_suite
    ok = (suite["trials"] >= 2000 and not suite["guarantee_violations"]
          and suite["elapsed"] < 60.0)
    report(5, "abstraction guarantee over randomized trials", ok,
           f"{suite['trials']} route-trials, {suite['elapsed']:.1f}s, "
           f"{len(suite['guarantee_violations'])} violations")
    assert suite["trials"] >= 2000
    assert suite["guarantee_violations"] == []
    assert suite["elapsed"] < 60.0


def test_criterion_06_stability_transfer(randomized_suite):
    suite = randomized_suite
    ok = not suite["transfer_violations"] and suite["proven_checked"] > 0
    report(6, "stability transfer on proven verdicts", ok,
           f"{suite['proven_checked']} proven cases re-simulated")
    assert suite["proven_checked"] > 0
    assert suite["transfer_violations"] == []


def test_criterion_07_numerics():
    ok_residual = True
    ok_rate = True
    rng = np.random.default_rng(4242)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A = random_stable_matrix(rng, n)
        Q = random_spd(rng, n)
        P = solve_discrete_lyapunov(A, Q)
        residual = spectral_norm(A.T @ P @ A - P + Q)
        ok_residual &= residual <= 1e-9 * spectral_norm(Q)
        from convrate import SystemModel

        params = lyapunov_abstraction(SystemModel(modes={0: A}), Q)
        ok_rate &= params.rho[0] < 1.0
    ok_invariants = True
    for _ in range(50):
        n = int(rng.integers(1, 7))
        P = random_spd(rng, n)
        R = cholesky(P)
        ok_invariants &= spectral_norm(R.T @ R - P) <= 1e-10 * spectral_norm(P)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        ok_invariants &= spectral_norm(A @ B) <= spectral_norm(A) * spectral_norm(B) + 1e-9
        ok_invariants &= spectral_radius(A) <= spectral_norm(A) + 1e-9
        eigs = eigenvalues(A)
        scale = max(1.0, abs(np.trace(A)))
        ok_invariants &= abs(np.sum(eigs) - np.trace(A)) <= 1e-8 * scale
        det = np.linalg.det(A)
        ok_invariants &= abs(np.prod(eigs) - det) <= 1e-8 * max(1.0, abs(det))
    ok = ok_residual and ok_rate and ok_invariants
    report(7, "dlyap residuals, Lyapunov rates, factorization invariants", ok)
    assert ok_residual and ok_rate and ok_invariants


def test_criterion_08_scheduler_soundness():
    horizon = 1000
    ok_kappa = True
    ok_state = True
    ok_practical = True
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        system = two_mode_system(rng, perturbation=0.6)
        params = lyapunov_abstraction(system)
        rho_hat = min(0.99, params.rho[0] + float(rng.uniform(0.05, 0.3)))
        target = ExponentialTarget(rho_hat, float(rng.uniform(1.5, 50.0)))
        x0 = rng.standard_normal(system.n)
        x0_norm = np.linalg.norm(x0)
        run = run_schedule(params, target, horizon, policy=greedy_policy(),
                           system=system, x0=x0, seed=seed)
        chosen = np.array(run.chosen)
        rates = np.array([params.rho[mode] for mode in chosen])
        with np.errstate(divide="ignore"):
            log_kappa = np.cumsum(np.log(rates))
        steps = np.arange(1, horizon + 1)
        budget = math.log(target.alpha_hat) + steps * math.log(rho_hat)
        ok_kappa &= bool(np.all(log_kappa <= budget + 1e-9))
        norms = np.linalg.norm(run.states, axis=1)
        envelope = params.alpha * target.alpha_hat * rho_hat ** np.arange(horizon + 1) * x0_norm
        ok_state &= bool(np.all(norms <= envelope * (1 + 1e-9)))
        ok_state &= not run.alarm_fired

        # practical mode on the same system
        w_bar = float(rng.uniform(0.01, 0.3))
        v0 = params.alpha * x0_norm
        bound = v0 + params.beta * w_bar / (1.0 - params.rho[0]) + 1e-9
        prun = run_schedule(params, PracticalTarget(bound), horizon,
                            policy=greedy_policy(), w_bar=w_bar, v0=v0, seed=seed)
        ok_practical &= not prun.alarm_fired
        ok_practical &= all(rec.v_bar <= bound * (1 + 1e-12) for rec in prun.records)
        x = np.array(x0, dtype=float)
        for rec in prun.records[:200]:
            direction = rng.standard_normal(system.n)
            noise = direction / np.linalg.norm(direction) * w_bar * rng.random()
            x = system.matrix(rec.chosen) @ x + noise
            ok_practical &= bool(np.linalg.norm(x) <= rec.v_bar * (1 + 1e-9))
            ok_practical &= bool(np.linalg.norm(x) <= bound * (1 + 1e-9))
    ok = ok_kappa and ok_state and ok_practical
    report(8, "scheduler soundness over randomized runs", ok)
    assert ok_kappa
    assert ok_state
    assert ok_practical


def test_criterion_09_cost_bounds(randomized_suite):
    suite = randomized_suite
    ok_traces = not suite["cost_violations"]
    ok_transform = True
    rng = np.random.default_rng(31337)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        Q = random_spd(rng, n)
        R = cost_transform(Q)
        x = rng.standard_normal(n)
        quad = float(x @ Q @ x)
        ok_transform &= abs(np.linalg.norm(R @ x) ** 2 - quad) <= 1e-10 * max(1.0, abs(quad))
    ok = ok_traces and ok_transform
    report(9, "cost bounds dominate measured cost; transform identity", ok)
    assert ok_traces
    assert ok_transform


def test_criterion_10_conservatism_pair(capsys):
    code = cli_run(["repro-counterexample"])
    out = capsys.readouterr().out
    not_proven = "closed-form (1,2) verdict: not proven" in out
    jsr_line = next((line for line in out.splitlines()
                     if "rho_hat_24(1,2)" in line and "brute force" in line), "")
    value = float(jsr_line.split("=")[1].split("<")[0]) if jsr_line else float("nan")
    ok = code == 0 and not_proven and 0.70 <= value <= 0.72
    report(10, "conservatism pair emitted together", ok,
           f"exit {code}, rho_hat {value:.4f}")
    assert code == 0
    assert not_proven
    assert 0.70 <= value <= 0.72
