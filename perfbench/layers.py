"""Traced in-process run: one span around each call into a convrate layer.

Run by ``run.py --trace 1`` in a fresh interpreter, with the documents it
generated::

    python3 perfbench/layers.py --work DIR --seed N jsr8=PATH gate4=PATH ...

Each workload's commands are replayed as ``cli.<command>`` spans whose
children are the public layer calls that command makes; after them come
probe spans that isolate one layer each (the walk, the counts, the per-
decision gate step, the certificate scan, the Lyapunov solve, the plant and
vbar recursions). Spans stay in memory and are written to ``DIR/spans.json``
at the end. The last line of standard output is a JSON object with the
per-layer metrics, the counters to compare with the timed CLI run, the
traced total of each workload's command spans, and any failed checks.

convrate and numpy are imported inside ``main`` so that ``cli.import_s``
times the program's full import, as every CLI command pays it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import inputs

#: Per-layer time metrics: metric -> (span name, workload whose spans it sums).
#: ``None`` sums the span over every workload.
TIMED = {
    "io.load_s": ("io.load_system", None),
    "counterexample.report_s": ("counterexample.report", "mk-search"),
    "sequences.search_s": ("sequences.averaged_spectral_radius", "mk-search"),
    "sequences.walk_s": ("sequences.enumerate_mk_sequences", "mk-search"),
    "sequences.count_s": ("sequences.count_mk_sequences", "mk-search"),
    "scheduler.run_s": ("scheduler.run_schedule", "online-gate"),
    "scheduler.csv_s": ("scheduler.schedule_csv_lines", "online-gate"),
    "nominal.certificate_s": ("nominal.nominal_certificate", "design-verify"),
    "builders.robust_s": ("builders.build_robustness_abstraction", "design-verify"),
    "builders.lyapunov_s": ("builders.lyapunov_abstraction", "design-verify"),
    "linalg.lyapunov_s": ("linalg.solve_discrete_lyapunov", "design-verify"),
    "simulate.plant_s": ("simulate.simulate_plant", "design-verify"),
    "simulate.vbar_s": ("simulate.simulate_abstraction", "design-verify"),
    "simulate.cosim_s": ("simulate.co_simulate", "design-verify"),
    "simulate.check_s": ("simulate.check_guarantee", "design-verify"),
    "simulate.csv_s": ("simulate.trace_csv_lines", "design-verify"),
}

#: The layers: modules under src/convrate/.
LAYERS = ("cli", "io", "linalg", "nominal", "builders", "mk", "sequences",
          "simulate", "scheduler", "counterexample")
#: Layers whose summed span self time is reported as ``<layer>.self_s``.
#: ``mk`` is closed-form and is timed inside counterexample.report.
SELF_TIMED = tuple(layer for layer in LAYERS if layer != "mk")


class Tracer:
    """Spans as ``[name, workload, parent index, start, end]``, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, workload: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, workload, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][4] = time.perf_counter()

    def call(self, name: str, workload: str, fn, *args, **kwargs):
        with self.span(name, workload):
            return fn(*args, **kwargs)

    def records(self) -> list[dict]:
        """Spans with their duration and self time (duration minus children)."""
        children = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        return [
            {"id": i, "name": name, "workload": workload, "parent": parent,
             "start": start, "end": end, "duration": end - start,
             "self": end - start - children[i]}
            for i, (name, workload, parent, start, end) in enumerate(self.spans)
        ]


class Checks:
    """Failed checks of the traced run, counted against the attempted ones."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)


def _write_csv(path: Path, lines: list[str]) -> str:
    """Write CSV lines as the CLI's ``--out`` does; return the file's sha256."""
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _flops(mk_counts, n: int) -> int:
    """Matmul flops of a depth-first search: one n x n product per tree node."""
    return sum(mk_counts[1:]) * 2 * n ** 3


def trace_mk_search(t: Tracer, checks: Checks, cv, docs) -> tuple[dict, dict]:
    W = "mk-search"
    m, K, L = inputs.SEARCH
    with t.span("cli.repro-counterexample", W):
        rep = t.call("counterexample.report", W, cv.counterexample.report, 24)
        cv.counterexample.format_report(rep)
    with t.span("cli.jsr", W):
        system = t.call("io.load_system", W, cv.io.load_system, docs["jsr8"])
        result = t.call("sequences.averaged_spectral_radius", W,
                        cv.sequences.averaged_spectral_radius, system,
                        cv.mk.MkConstraint(m, K), L)
    rm, rK, rL = inputs.REFUSAL
    with t.span("cli.jsr-refusal", W):
        t.call("io.load_system", W, cv.io.load_system, docs["jsr8"])
        refused = t.call("sequences.count_mk_sequences", W, cv.sequences.count_mk_sequences,
                         cv.mk.MkConstraint(rm, rK), rL)
    checks.expect(rep.passed, "counterexample.report did not pass")
    checks.expect(refused == inputs.mk_counts(rm, rK, rL)[-1],
                  f"count_mk_sequences({rm},{rK}) at L={rL} differs from the reference")

    searches = [(*inputs.DEMO_SEARCHES[0], rep.jsr_12.count, 3),
                (*inputs.DEMO_SEARCHES[1], rep.jsr_24.count, 3),
                (m, K, L, result.count, system.n)]
    evaluated = admissible = flops = 0
    for sm, sK, sL, count, n in searches:
        mk = cv.mk.MkConstraint(sm, sK)
        walked = t.call("sequences.enumerate_mk_sequences", W,
                        lambda: sum(1 for _ in cv.sequences.enumerate_mk_sequences(mk, sL)))
        counted = t.call("sequences.count_mk_sequences", W,
                         cv.sequences.count_mk_sequences, mk, sL)
        reference = inputs.mk_counts(sm, sK, sL)
        for label, value in (("walked", walked), ("counted", counted), ("evaluated", count)):
            checks.expect(value == reference[-1],
                          f"({sm},{sK}) L={sL}: {label} {value} != reference {reference[-1]}")
        evaluated += count
        admissible += reference[-1]
        flops += _flops(reference, n)
    metrics = {
        "sequences.evaluated": evaluated,
        "sequences.admissible": admissible,
        "sequences.evaluated_ratio": evaluated / admissible,
        "sequences.product_flops": flops,
    }
    return metrics, {"jsr.evaluated": result.count, "jsr-refusal.count": refused}


def trace_online_gate(t: Tracer, checks: Checks, cv, docs, seed: int,
                      work: Path) -> tuple[dict, dict]:
    W = "online-gate"
    sch = cv.scheduler
    steps = inputs.SCHEDULE_STEPS
    runs = {
        "schedule-greedy": dict(target=sch.ExponentialTarget(inputs.RHO_HAT, inputs.ALPHA_HAT),
                                policy="greedy", w_bar=0.0, v0=None, seed=None),
        "schedule-practical": dict(target=sch.PracticalTarget(inputs.C_BOUND),
                                   policy="random", w_bar=inputs.W_BAR, v0=inputs.V0,
                                   seed=seed),
    }
    counters = {}
    decisions = skips = alarms = 0
    for name, spec in runs.items():
        with t.span(f"cli.{name}", W):
            system = t.call("io.load_system", W, cv.io.load_system, docs["gate4"])
            params = t.call("builders.build_robustness_abstraction", W,
                            cv.builders.build_robustness_abstraction, system, inputs.GATE_RHO)
            run = t.call("scheduler.run_schedule", W, sch.run_schedule, params,
                         spec["target"], steps, policy=sch.POLICIES[spec["policy"]](),
                         w_bar=spec["w_bar"], v0=spec["v0"], seed=spec["seed"])
            lines = t.call("scheduler.schedule_csv_lines", W, sch.schedule_csv_lines, run.records)
            counters[f"{name}.csv_sha256"] = _write_csv(work / f"traced-{name}.csv", lines)
        if name == "schedule-greedy":
            greedy_chosen = list(run.chosen)
        run_skips = sum(1 for rec in run.records if rec.chosen != 0)
        run_alarms = sum(1 for rec in run.records if rec.alarm)
        checks.expect(len(run.records) == steps, f"{name}: {len(run.records)} decisions")
        checks.expect(all(rec.chosen in rec.admissible for rec in run.records),
                      f"{name}: a chosen mode is outside its admissible set")
        counters.update({f"{name}.decisions": len(run.records), f"{name}.skips": run_skips,
                         f"{name}.alarms": run_alarms})
        decisions += len(run.records)
        skips += run_skips
        alarms += run_alarms
        del run  # one run's records alive at a time, as in the CLI

    # The gate step alone, once per decision, on the greedy run's inputs.
    target = runs["schedule-greedy"]["target"]
    choose = sch.POLICIES["greedy"]()
    params = cv.builders.build_robustness_abstraction(cv.io.load_system(docs["gate4"]),
                                                      inputs.GATE_RHO)
    durations = []
    chosen = []
    clock = time.perf_counter_ns
    with t.span("scheduler.step_loop", W):
        state = sch.exponential_state()
        for k in range(steps):
            start = clock()
            report = sch.supervisor_check(state, params, target)
            admissible = sch.admissible_modes(state, params, target)
            mode = choose(k, admissible, None) if report.ok and admissible else 0
            state = sch.kappa_hat_step(state, mode, params, target)
            durations.append(clock() - start)
            chosen.append(mode)
    checks.expect(chosen == greedy_chosen,
                  "the per-decision gate loop chose differently from run_schedule")
    cuts = statistics.quantiles(durations, n=100)
    metrics = {
        "scheduler.step_us_p50": cuts[49] / 1e3,
        "scheduler.step_us_p99": cuts[98] / 1e3,
        "scheduler.decisions": decisions,
        "scheduler.skip_ratio": skips / decisions,
        "scheduler.alarms": alarms,
    }
    return metrics, counters


def trace_design_verify(t: Tracer, checks: Checks, cv, docs, seed: int, work: Path,
                        np) -> tuple[dict, dict]:
    W = "design-verify"
    sim = cv.simulate
    steps = inputs.SIMULATE_STEPS
    with t.span("cli.analyze-robust", W):
        jordan = t.call("io.load_system", W, cv.io.load_system, docs["jordan4"])
        robust = t.call("builders.build_robustness_abstraction", W,
                        cv.builders.build_robustness_abstraction, jordan, inputs.JORDAN_RHO)
    with t.span("cli.analyze-lyapunov", W):
        system = t.call("io.load_system", W, cv.io.load_system, docs["sys32"])
        t.call("builders.lyapunov_abstraction", W, cv.builders.lyapunov_abstraction, system)
    with t.span("cli.simulate", W):
        system = t.call("io.load_system", W, cv.io.load_system, docs["sys32"])
        params = t.call("builders.lyapunov_abstraction", W,
                        cv.builders.lyapunov_abstraction, system)
        seq = t.call("sequences.worst_case_sequence", W, cv.sequences.worst_case_sequence,
                     cv.mk.MkConstraint(*inputs.SIMULATE_PATTERN), steps)
        n = system.n
        x0 = np.ones(n) / np.sqrt(n)
        # the disturbances of `simulate --w seed:<seed>`
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((steps, n))
        norms = np.linalg.norm(directions, axis=1)
        norms[norms == 0] = 1.0
        bound = system.disturbance_bound
        w = directions / norms[:, None] * (bound * rng.random(steps))[:, None]
        w_bar = np.full(steps, bound)
        trace = t.call("simulate.co_simulate", W, sim.co_simulate, system, params, seq, x0,
                       w, w_bar, steps, {"disturbance": f"seed:{seed}", "seed": seed})
        lines = t.call("simulate.trace_csv_lines", W, sim.trace_csv_lines, trace)
        csv_sha256 = _write_csv(work / "traced-simulate.csv", lines)
        guarantee = t.call("simulate.check_guarantee", W, sim.check_guarantee, trace)

    A0 = system.modes[0]
    cert = t.call("nominal.nominal_certificate", W, cv.nominal.nominal_certificate,
                  jordan.modes[0], inputs.JORDAN_RHO)
    P = t.call("linalg.solve_discrete_lyapunov", W, cv.linalg.solve_discrete_lyapunov,
               A0, np.eye(n))
    states = t.call("simulate.simulate_plant", W, sim.simulate_plant, system, seq, x0, w, steps)
    vbar = t.call("simulate.simulate_abstraction", W, sim.simulate_abstraction, params, seq,
                  float(np.linalg.norm(x0)), w_bar, steps)

    checks.expect(cert.k_tilde == robust.diagnostics.get("k_tilde"),
                  "nominal_certificate and the robust build disagree on k_tilde")
    checks.expect(not trace.diverged and len(trace) == steps + 1,
                  f"co_simulate produced {len(trace)} rows (diverged={trace.diverged})")
    checks.expect(guarantee.holds, "|x_k| <= vbar_k does not hold on the trace")
    checks.expect(np.array_equal(states, trace.x) and np.array_equal(vbar, trace.vbar),
                  "simulate_plant / simulate_abstraction differ from co_simulate")
    residual = float(np.linalg.norm(A0.T @ P @ A0 - P + np.eye(n), 2))
    checks.expect(residual <= 1e-9, f"Lyapunov residual {residual:.3e}")
    eigs = np.linalg.eigvalsh(params.lyapunov_P)
    metrics = {
        "nominal.k_tilde": cert.k_tilde,
        "linalg.lyapunov_residual": residual,
        "builders.P_condition": float(eigs[-1] / eigs[0]),
        "simulate.rows": len(trace),
        "simulate.max_ratio": guarantee.max_ratio,
    }
    return metrics, {"analyze-robust.k_tilde": cert.k_tilde, "simulate.rows": len(trace),
                     "simulate.csv_sha256": csv_sha256}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("docs", nargs="+", help="NAME=PATH of each generated document")
    args = parser.parse_args(argv)
    docs = dict(item.split("=", 1) for item in args.docs)

    start = time.perf_counter()
    importlib.import_module("convrate.cli")  # the import every command pays
    import_s = time.perf_counter() - start
    for module in LAYERS:
        importlib.import_module(f"convrate.{module}")
    import numpy as np

    import convrate as cv

    t = Tracer()
    checks = Checks()
    metrics = {"cli.import_s": import_s}
    counters = {}
    passes = (lambda: trace_mk_search(t, checks, cv, docs),
              lambda: trace_online_gate(t, checks, cv, docs, args.seed, args.work),
              lambda: trace_design_verify(t, checks, cv, docs, args.seed, args.work, np))
    for traced_pass in passes:
        gc.collect()  # start each workload's pass from a clean heap, as a fresh command does
        part_metrics, part_counters = traced_pass()
        metrics.update(part_metrics)
        counters.update(part_counters)

    spans = t.records()
    for metric, (name, workload) in TIMED.items():
        metrics[metric] = sum(s["duration"] for s in spans
                              if s["name"] == name and workload in (None, s["workload"]))
    for module in SELF_TIMED:
        metrics[f"{module}.self_s"] = sum(s["self"] for s in spans
                                          if s["name"].split(".", 1)[0] == module)
    metrics["trace.spans"] = len(spans)
    command_s = {}
    for s in spans:
        if s["parent"] is None and s["name"].startswith("cli."):
            command_s[s["workload"]] = command_s.get(s["workload"], 0.0) + s["duration"]
    (args.work / "spans.json").write_text(json.dumps(spans, indent=1) + "\n")
    print(json.dumps({"metrics": metrics, "counters": counters, "command_s": command_s,
                      "attempted": checks.attempted, "errors": checks.errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
