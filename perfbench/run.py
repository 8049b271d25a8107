"""convrate benchmark: every CLI command as a fresh subprocess, plus a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mk-search --seed 1 --seconds 20 --trace 0

``--trace 0`` generates the workload's system documents from ``--seed``,
then runs the workload's commands (``python -m convrate ...``, import floor
included) one after another, and repeats the list while one more repeat
fits in ``--seconds`` of command time, at least twice. Every output is
checked once, and every repeat must reproduce it byte for byte (sha256 of
stdout, stderr and CSV). The last line of standard output is the JSON
result with the end-to-end metrics named in BENCHMARK.json.

``--trace 1`` runs the workload's commands once, untraced, then runs
``layers.py`` in a fresh interpreter, which times the public functions of
each convrate module with the same inputs, and reports the per-layer
metrics, including the tracing overhead against the untraced commands.

Scratch files go to ``.perfbench_work/<workload>/`` under the checkout.
Exit status is 0 when a result was printed (``correct`` may still be
false), 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
#: Set-up is repeated and its median reported, so one slow start does not count.
SETUP_REPEATS = 5
#: Every command runs at least twice per timed run: the repeat checks byte stability.
MIN_ITERATIONS = 2
COMMAND_TIMEOUT = 150.0
#: BLAS threads per process. Commands run one at a time, so the load never
#: exceeds one core of the machine's nproc.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCHEDULE_HEADER = "k,chosen_sigma,admissible_set,kappa_hat,vbar,alarm"
TRACE_HEADER = "k,sigma,w_norm,x_norm,vbar,kappa,cost_bound"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``kind`` groups commands into jsr_s, schedule_s, ..."""

    name: str
    kind: str
    args: tuple[str, ...]
    expect_rc: int = 0
    csv: Path | None = None


def workload_commands(workload: str, docs: dict[str, Path], seed: int,
                      work: Path) -> list[Command]:
    if workload == "mk-search":
        (m, K, L), (rm, rK, rL) = inputs.SEARCH, inputs.REFUSAL
        jsr8 = str(docs["jsr8"])
        return [
            Command("repro-counterexample", "jsr", ("repro-counterexample",)),
            Command("jsr", "jsr", ("jsr", jsr8, "--m", str(m), "--K", str(K),
                                   "--length", str(L))),
            Command("jsr-refusal", "refusal", ("jsr", jsr8, "--m", str(rm), "--K", str(rK),
                                               "--length", str(rL)), expect_rc=1),
        ]
    if workload == "online-gate":
        gate = ("schedule", str(docs["gate4"]), "--method", "robust",
                "--rho", repr(inputs.GATE_RHO), "--steps", str(inputs.SCHEDULE_STEPS))
        greedy, practical = work / "schedule-greedy.csv", work / "schedule-practical.csv"
        return [
            Command("schedule-greedy", "schedule",
                    (*gate, "--rho-hat", repr(inputs.RHO_HAT), "--alpha-hat",
                     repr(inputs.ALPHA_HAT), "--policy", "greedy", "--out", str(greedy)),
                    csv=greedy),
            Command("schedule-practical", "schedule",
                    (*gate, "--C", repr(inputs.C_BOUND), "--v0", repr(inputs.V0),
                     "--w-bar", repr(inputs.W_BAR), "--policy", "random",
                     "--seed", str(seed), "--out", str(practical)),
                    csv=practical),
        ]
    if workload == "design-verify":
        trace = work / "simulate.csv"
        m, K = inputs.SIMULATE_PATTERN
        return [
            Command("analyze-robust", "analyze", ("analyze", str(docs["jordan4"]), "--method",
                                                  "robust", "--rho", repr(inputs.JORDAN_RHO))),
            Command("analyze-lyapunov", "analyze", ("analyze", str(docs["sys32"]),
                                                    "--method", "lyapunov")),
            Command("simulate", "simulate",
                    ("simulate", str(docs["sys32"]), "--method", "lyapunov",
                     "--sigma", f"mk-worst:{m},{K}", "--steps", str(inputs.SIMULATE_STEPS),
                     "--w", f"seed:{seed}", "--out", str(trace)),
                    csv=trace),
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Result:
    wall: float
    rc: int
    rss_mb: float
    stdout: str
    stderr: str
    sha256: dict[str, str]


def run_command(cmd: Command, env: dict, work: Path) -> Result:
    """Run one command to completion; wall time, and max RSS from its own rusage."""
    out, err = work / f"{cmd.name}.out", work / f"{cmd.name}.err"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "convrate", *cmd.args],
                                stdout=stdout, stderr=stderr, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    files = {"stdout": out, "stderr": err}
    if cmd.csv is not None and cmd.csv.exists():
        files["csv"] = cmd.csv
    sha = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    return Result(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                  out.read_text(errors="replace"), err.read_text(errors="replace"), sha)


def _field(pattern: str, text: str) -> str:
    match = re.search(pattern, text, re.M)
    if match is None:
        raise ValueError(f"no line matches {pattern!r}")
    return match.group(1)


class OutputChecks:
    """Checks each command's output against the program loaded in-process.

    Each check returns the list of problems found and the exact counters it
    read, which the traced run must reproduce.
    """

    def __init__(self, root: Path, docs: dict[str, Path], np):
        sys.path.insert(0, str(root / "src"))
        import convrate
        from convrate import builders, io, mk, sequences

        source = (root / "src").resolve()
        if not Path(convrate.__file__).resolve().is_relative_to(source):
            raise RuntimeError(f"convrate was imported from {convrate.__file__}, not {source}")
        self.np, self.builders, self.io, self.mk, self.sequences = np, builders, io, mk, sequences
        self.docs = docs

    def __call__(self, cmd: Command, res: Result) -> tuple[list[str], dict]:
        try:
            return getattr(self, cmd.name.replace("-", "_"))(cmd, res)
        except (ValueError, LookupError, OSError) as exc:
            return [f"unreadable output: {exc}"], {}

    def repro_counterexample(self, cmd, res):
        ok = res.stdout.rstrip().endswith("overall: PASS")
        return ([] if ok else ["did not end with 'overall: PASS'"]), {}

    def jsr(self, cmd, res):
        np = self.np
        m, K, L = inputs.SEARCH
        rho_hat = float(_field(r"^rho_hat_\d+\(\d+,\d+\) = (\S+)$", res.stdout))
        sigma = tuple(int(s) for s in _field(r"^attained by sigma = ([01,]+)$",
                                             res.stdout).split(","))
        evaluated = int(_field(r"^sequences evaluated: (\d+)$", res.stdout))
        problems = []
        expected = inputs.mk_counts(m, K, L)[-1]
        if evaluated != expected:
            problems.append(f"evaluated {evaluated} != count {expected}")
        if len(sigma) != L or not self.sequences.validate_mk(sigma, self.mk.MkConstraint(m, K)):
            problems.append(f"attaining sequence {sigma} is not ({m},{K}) of length {L}")
        modes = self.io.load_system(self.docs["jsr8"]).modes
        product = np.eye(modes[0].shape[0])
        for s in sigma:
            product = modes[s] @ product
        radius = float(np.max(np.abs(np.linalg.eigvals(product)))) ** (1.0 / L)
        if abs(radius - rho_hat) > 1e-9 * rho_hat:
            problems.append(f"attaining sequence gives {radius!r}, printed {rho_hat!r}")
        return problems, {"evaluated": evaluated}

    def jsr_refusal(self, cmd, res):
        quoted = int(_field(r"this would visit (\d+) sequences", res.stderr))
        expected = inputs.mk_counts(*inputs.REFUSAL)[-1]
        return ([] if quoted == expected else [f"quoted {quoted}, exact count {expected}"],
                {"count": quoted})

    def _schedule(self, cmd, res, exponential: bool):
        lines = cmd.csv.read_text().splitlines()
        problems = []
        if len(lines) != inputs.SCHEDULE_STEPS + 1 or lines[0] != SCHEDULE_HEADER:
            problems.append(f"{len(lines)} lines, header {lines[0]!r}")
        skips = alarms = outside = over = 0
        for row in lines[1:]:
            _, chosen, admissible, kappa_hat, vbar, alarm = row.split(",", 5)
            skips += chosen != "0"
            alarms += bool(alarm)
            outside += chosen not in admissible.split("|")
            if not alarm:
                over += (float(kappa_hat) > inputs.ALPHA_HAT if exponential
                         else float(vbar) > inputs.C_BOUND)
        if outside:
            problems.append(f"{outside} chosen modes outside their admissible set")
        if over:
            problems.append(f"{over} rows without alarm exceed the budget")
        if alarms:
            problems.append(f"{alarms} alarms on inputs built to raise none")
        return problems, {"decisions": len(lines) - 1, "skips": skips, "alarms": alarms}

    def schedule_greedy(self, cmd, res):
        return self._schedule(cmd, res, exponential=True)

    def schedule_practical(self, cmd, res):
        return self._schedule(cmd, res, exponential=False)

    def _analyze(self, res, params) -> list[str]:
        rates = {int(mode): float(rate)
                 for mode, rate in re.findall(r"^rho\[(\d+)\]: (\S+)", res.stdout, re.M)}
        alpha = float(_field(r"^alpha: (\S+)$", res.stdout))
        if rates != params.rho or alpha != params.alpha:
            return [f"printed alpha {alpha!r}, rho {rates} != in-process "
                    f"{params.alpha!r}, {params.rho}"]
        return []

    def analyze_robust(self, cmd, res):
        system = self.io.load_system(self.docs["jordan4"])
        params = self.builders.build_robustness_abstraction(system, inputs.JORDAN_RHO)
        problems = self._analyze(res, params)
        k_tilde = int(_field(r"^diagnostics\.k_tilde: (\d+)$", res.stdout))
        if k_tilde != params.diagnostics["k_tilde"]:
            problems.append(f"k_tilde {k_tilde} != in-process {params.diagnostics['k_tilde']}")
        return problems, {"k_tilde": k_tilde}

    def analyze_lyapunov(self, cmd, res):
        system = self.io.load_system(self.docs["sys32"])
        return self._analyze(res, self.builders.lyapunov_abstraction(system)), {}

    def simulate(self, cmd, res):
        lines = cmd.csv.read_text().splitlines()
        rows = len(lines) - 1
        problems = []
        if rows != inputs.SIMULATE_STEPS + 1 or lines[0] != TRACE_HEADER:
            problems.append(f"{rows} rows, header {lines[0]!r}")
        if "guarantee holds" not in res.stderr:
            problems.append("the |x_k| <= vbar_k check did not report 'guarantee holds'")
        return problems, {"rows": rows}


@dataclass
class Measurement:
    """Per-iteration command walls, checks and counters of one timed run."""

    iterations: list[dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    sha256: dict[str, dict[str, str]] = field(default_factory=dict)


def measure(commands: list[Command], env: dict, work: Path, checks: OutputChecks,
            seconds: float, min_iterations: int) -> Measurement:
    """Repeat the commands at least ``min_iterations`` times, then while another
    repeat, at the mean pace so far, still fits in ``seconds`` of command time."""
    result = Measurement()
    spent = 0.0
    while (len(result.iterations) < min_iterations
           or spent * (len(result.iterations) + 1) / len(result.iterations) <= seconds):
        walls = {}
        for cmd in commands:
            res = run_command(cmd, env, work)
            result.attempted += 1
            problems = []
            if res.rc != cmd.expect_rc:
                problems.append(f"exit code {res.rc}, expected {cmd.expect_rc}")
            if cmd.name not in result.sha256:
                result.sha256[cmd.name] = res.sha256
                found, counters = checks(cmd, res)
                problems += found
                result.counters.update({f"{cmd.name}.{k}": v for k, v in counters.items()})
                if "csv" in res.sha256:
                    result.counters[f"{cmd.name}.csv_sha256"] = res.sha256["csv"]
            elif res.sha256 != result.sha256[cmd.name]:
                problems.append("output differs from the first run with the same seed")
            if problems:
                result.failed += 1
                for problem in problems:
                    print(f"FAIL {cmd.name} (iteration {len(result.iterations) + 1}): {problem}",
                          file=sys.stderr)
            walls[cmd.name] = res.wall
            result.peak_rss_mb = max(result.peak_rss_mb, res.rss_mb)
            spent += res.wall
        result.iterations.append(walls)
    return result


def _blas_threads(np) -> int | None:
    """Threads OpenBLAS reports in this process (same environment as the commands)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as info:
        names = [line.split(":", 1)[1].strip() for line in info if line.startswith("model name")]
    return names[0] if names else platform.machine()


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_threads_env": BLAS_THREADS,
        "concurrent_commands": 1,
        "cpu": _cpu_model(),
    }


def _emit(entries: list[dict], values: dict, attempted: int, failed: int) -> None:
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOAD_DOCUMENTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "convrate" / "__init__.py").is_file():
        print("error: no src/convrate here; run from the root of a convrate checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    # Pin BLAS threads before numpy is loaded, here and in every child.
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARIABLES})
    import numpy as np

    import documents

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    print("environment: " + json.dumps(environment(np)))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    help_cmd = Command("help", "setup", ("--help",))

    if args.trace:
        names = [name for docs in inputs.WORKLOAD_DOCUMENTS.values() for name in docs]
        docs = documents.write_documents(names, args.seed, work)
        floor = statistics.median(run_command(help_cmd, env, work).wall for _ in range(3))
    else:
        setups, floors = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            docs = documents.write_documents(inputs.WORKLOAD_DOCUMENTS[args.workload],
                                             args.seed, work)
            floors.append(run_command(help_cmd, env, work).wall)
            setups.append(time.perf_counter() - start)
        floor = statistics.median(floors)

    commands = workload_commands(args.workload, docs, args.seed, work)
    checks = OutputChecks(root, docs, np)
    run = measure(commands, env, work, checks, 0 if args.trace else args.seconds,
                  1 if args.trace else MIN_ITERATIONS)
    for cmd in commands:
        walls = [it[cmd.name] for it in run.iterations]
        print(f"command {cmd.name}: median {statistics.median(walls):.4f} s over {len(walls)} "
              f"runs, sha256 {json.dumps(run.sha256[cmd.name])}")
    print("iterations: " + json.dumps(run.iterations))
    print("counters: " + json.dumps(run.counters, sort_keys=True))
    print(f"import floor (convrate --help): {floor:.4f} s")

    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(it.values()) for it in run.iterations),
            "peak_rss_mb": run.peak_rss_mb,
        }
        for kind in dict.fromkeys(cmd.kind for cmd in commands):
            kind_s = statistics.median(sum(it[c.name] for c in commands if c.kind == kind)
                                       for it in run.iterations)
            print(f"{kind}_s: {kind_s:.4f} s")
        print(f"error_rate: {run.failed / run.attempted:.4f} "
              f"({run.failed} failed of {run.attempted} commands attempted)")
        _emit(spec["end_to_end"], values, run.attempted, run.failed)
        return 0

    layers = subprocess.run(
        [sys.executable, str(HERE / "layers.py"), "--work", str(work), "--seed",
         str(args.seed), *(f"{name}={path}" for name, path in docs.items())],
        env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT)
    if layers.returncode != 0:
        print(layers.stderr, file=sys.stderr)
        print(f"error: the traced run exited with {layers.returncode}", file=sys.stderr)
        return 1
    traced = json.loads(layers.stdout.strip().splitlines()[-1])
    values = traced["metrics"]
    untraced = sum(run.iterations[0].values()) - len(commands) * floor
    values["trace.overhead_ratio"] = traced["command_s"][args.workload] / untraced
    shared = sorted(set(run.counters) & set(traced["counters"]))
    mismatched = [key for key in shared if run.counters[key] != traced["counters"][key]]
    for key in mismatched:
        print(f"FAIL counter {key}: CLI {run.counters[key]}, traced {traced['counters'][key]}",
              file=sys.stderr)
    for error in traced["errors"]:
        print(f"FAIL traced run: {error}", file=sys.stderr)
    print(f"spans: {work / 'spans.json'}; counters compared with the CLI run: {shared}")
    _emit(spec["per_layer"], values, run.attempted + traced["attempted"] + len(shared),
          run.failed + len(traced["errors"]) + len(mismatched))
    return 0


if __name__ == "__main__":
    sys.exit(main())
