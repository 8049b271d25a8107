"""Byte-identity check of the convrate CLI between two source trees.

Run from anywhere, with the numpy the benchmark uses::

    python tools/identity.py OLD_TREE NEW_TREE

Each tree is the root of a checkout (its ``src/convrate`` is run, with
``PYTHONPATH=<tree>/src``). Every case of one fixed command matrix runs
once against each tree, in the same scratch directory, so paths in the
output agree. The tool compares the exit code, stdout, stderr and the
sha256 of every file the command leaves in the ``--out`` directory, prints
each difference, and exits 1 if there is any, 0 if there is none, 2 if a
tree holds no ``src/convrate``.

The matrix:

* ``simulate`` with every ``--w`` mode at 0, 1, 4095-4097, 8192 and 8193
  steps, a diverging run, a run whose guarantee fails, ``--out -`` and files;
* ``schedule`` with every policy, exponential and practical, and an alarm;
* ``analyze`` (``--method lyapunov`` at n=64 too), ``mk-check``, ``jsr`` and
  ``repro-counterexample`` runs, with ``jsr`` searches whose frontier spans
  many blocks of ``sequences.EIG_CHUNK_BYTES``, the benchmark's seed-5
  n=8 search, where the best leaf found so far does most of the pruning,
  demo searches whose walk merges equal products (one past 63 symbols),
  and the 2,048-state automaton of (1,12);
* every CLI refusal of ``tests/test_refusals.py`` (read from its literals),
  the ``jsr`` cap refusals and usage errors;
* unusable ``--out`` paths, ``/dev/full`` as ``--out``, as stdout (with and
  without ``PYTHONUNBUFFERED``) and as stderr, a stdout pipe whose reader
  has gone, and a closed stdout or stderr, ``--help`` included;
* the benchmark's commands at seeds 1, 7 and 43, on the documents of
  ``perfbench/documents.py``.

No expected output is stored: the Lyapunov and eigenvalue digits depend on
the numpy and LAPACK build, so only two trees on one machine are compared.
"""

from __future__ import annotations

import ast
import difflib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import documents  # noqa: E402
import inputs  # noqa: E402
import numpy as np  # noqa: E402
import run as bench  # noqa: E402

SEEDS = (1, 7, 43)
EDGES = (0, 1, 4095, 4096, 4097, 8192, 8193)
TIMEOUT = 300.0
#: Case-name suffix of a run without and with ``PYTHONUNBUFFERED``.
MODES = {False: "buffered", True: "unbuffered"}
#: Lines of a stdout or stderr diff printed per difference.
DIFF_LINES = 12

#: Documents besides those of tests/test_refusals.py.
DOCUMENTS = {
    "bounded": {"name": "bounded", "modes": [{"id": 0, "A": [[0.5, 0.1], [0.0, 0.4]]},
                                             {"id": 1, "A": [[1.1, 0.0], [0.2, 0.9]]}],
                "disturbance_bound": 0.1},
    "costed": {"modes": [{"id": 0, "A": [[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]]},
                         {"id": 1, "A": [[1.1, 0.0, 0.2], [0.1, 0.9, 0.0], [0.0, 0.3, 1.0]]}],
               "disturbance_bound": 0.1,
               "cost_weight_Q": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]},
    # one mode just inside the unit circle: the plant passes its bound at k=1 by a
    # rounding error
    "near1": {"name": "near1", "modes": [{"id": 0, "A": [[0.999995870651097]]}]},
    # the modes of convrate.counterexample.system()
    "demo": {"modes": [{"id": 0, "A": [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
                       {"id": 1, "A": [[0.5, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}]},
}


def _large(n: int) -> dict:
    """A seeded n x n document: a symmetric nominal mode with spectral radius < 0.9
    and a rank-one skip mode next to it."""
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nominal = q @ np.diag(rng.uniform(-0.9, 0.9, n)) @ q.T
    skip = nominal + 0.5 * np.outer(q[:, 0], q[:, 1])
    return {"name": f"n{n}", "modes": [{"id": 0, "A": nominal.tolist()},
                                       {"id": 1, "A": skip.tolist()}]}


@dataclass(frozen=True)
class Case:
    """One command. ``argv`` holds ``{name}`` placeholders for the scratch paths; stdout
    and stderr are each ``pipe`` (read to the end), ``full`` (``/dev/full``),
    ``gone`` (a pipe whose reader has closed it) or ``closed``."""

    name: str
    argv: tuple[str, ...]
    stdout: str = "pipe"
    stderr: str = "pipe"
    unbuffered: bool = False


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, str]


def _literal(path: Path, name: str):
    """The literal assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path}: no literal {name}")


def matrix(work: Path) -> tuple[list[Case], dict[str, str]]:
    """The cases, and the paths their placeholders stand for (documents written here)."""
    refusals = REPO / "tests" / "test_refusals.py"
    docs = work / "docs"
    docs.mkdir()
    paths = {"out": str(work / "out"), "absent": str(work / "absent"), "dir": str(docs),
             "not_json": str(docs / "q.txt")}
    (docs / "q.txt").write_text("not JSON\n")
    for name, doc in {**_literal(refusals, "DOCUMENTS"), **DOCUMENTS, "n8": _large(8),
                      "n64": _large(64)}.items():
        paths[name] = str(docs / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    (docs / "seed5").mkdir()
    paths["jsr8_seed5"] = str(documents.write_documents(["jsr8"], 5, docs / "seed5")["jsr8"])

    cases = []

    def add(name, *argv, **streams):
        cases.append(Case(name, argv, **streams))

    for w in ("zero", "const:0.05", "seed:7"):
        for steps in EDGES:
            add(f"simulate --w {w} --steps {steps}", "simulate", "{bounded}", "--sigma",
                "mk-worst:1,2", "--steps", str(steps), "--w", w)
        add(f"simulate cost weight --w {w}", "simulate", "{costed}", "--sigma", "mk-worst:2,3",
            "--steps", "8193", "--w", w, "--out", "{out}/trace.csv")
    add("simulate diverging", "simulate", "{bounded}", "--sigma", "mk-worst:0,2", "--steps",
        "20000", "--w", "const:0.05", "--out", "{out}/diverged.csv")
    add("simulate robust --out -", "simulate", "{scalar}", "--method", "robust", "--rho", "0.6",
        "--sigma", "0,1,1,0,0", "--x0", "2", "--out", "-")
    add("simulate robust --w seed:7", "simulate", "{bounded}", "--method", "robust", "--rho",
        "0.6", "--sigma", "mk-worst:1,2", "--steps", "8193", "--w", "seed:7", "--out",
        "{out}/robust.csv")
    add("simulate guarantee violated", "simulate", "{near1}", "--method", "lyapunov",
        "--sigma", "0,0,0,0", "--x0", "1", "--rel-tol", "0")
    add("simulate --x0 dominant", "simulate", "{costed}", "--sigma", "0,1,0,1", "--x0",
        "dominant:0,1")
    for policy in ("greedy", "random", "round-robin"):
        add(f"schedule exponential {policy}", "schedule", "{bounded}", "--rho-hat", "0.9",
            "--alpha-hat", "2", "--steps", "9000", "--policy", policy, "--seed", "7")
        add(f"schedule practical {policy}", "schedule", "{bounded}", "--C", "5.0", "--v0",
            "1.0", "--w-bar", "0.1", "--steps", "9000", "--policy", policy, "--seed", "7",
            "--out", "{out}/decisions.csv")
    add("schedule alarm", "schedule", "{scalar}", "--C", "1.0", "--v0", "5.0", "--steps", "5",
        "--out", "{out}/alarm.csv")
    add("schedule --out -", "schedule", "{scalar}", "--method", "robust", "--rho", "0.6",
        "--rho-hat", "0.9", "--alpha-hat", "100", "--steps", "50", "--out", "-")
    add("analyze robust", "analyze", "{bounded}", "--method", "robust", "--rho", "0.6")
    add("analyze lyapunov --out", "analyze", "{costed}", "--out", "{out}/params.json")
    add("analyze lyapunov n=64", "analyze", "{n64}", "--method", "lyapunov")
    add("mk-check", "mk-check", "{scalar}", "--m", "1", "--K", "3", "--method", "robust",
        "--rho", "0.6")
    add("mk-check --json --r0", "mk-check", "{bounded}", "--m", "2", "--K", "5", "--r0", "3",
        "--json")
    add("mk-check overshoot past the float range", "mk-check", "{bounded}", "--m", "1000",
        "--K", "2000", "--method", "robust", "--rho", "0.6")
    add("jsr", "jsr", "{bounded}", "--m", "2", "--K", "4", "--length", "12")
    add("jsr rho_hat >= 1", "jsr", "{scalar}", "--m", "1", "--K", "2", "--length", "8")
    add("jsr demo (1,2) L=24", "jsr", "{demo}", "--m", "1", "--K", "2", "--length", "24")
    add("jsr demo (2,4) L=24", "jsr", "{demo}", "--m", "2", "--K", "4", "--length", "24")
    # equal products at different automaton states: a merge blind to the state goes wrong
    add("jsr demo (3,4) L=12", "jsr", "{demo}", "--m", "3", "--K", "4", "--length", "12")
    add("jsr demo (2,3) L=12", "jsr", "{demo}", "--m", "2", "--K", "3", "--length", "12")
    add("jsr demo (1,2) L=32", "jsr", "{demo}", "--m", "1", "--K", "2", "--length", "32",
        "--max-length", "32")
    # packed bits past 63 symbols are Python integers, under the tiling filter too
    add("jsr demo (1,2) L=70", "jsr", "{demo}", "--m", "1", "--K", "2", "--length", "70",
        "--max-length", "70")
    # the widest automaton: 2,048 states
    add("jsr (1,12) L=14", "jsr", "{bounded}", "--m", "1", "--K", "12", "--length", "14")
    add("jsr benchmark jsr8 seed 5 (3,6) L=20", "jsr", "{jsr8_seed5}", "--m", "3", "--K", "6",
        "--length", "20")
    add("jsr n=8 (3,6) L=22", "jsr", "{n8}", "--m", "3", "--K", "6", "--length", "22")
    add("repro-counterexample", "repro-counterexample")

    for name, (argv, _) in _literal(refusals, "CLI_REFUSALS").items():
        add(f"refusal {name}", *argv)
    for name, (argv, _, _) in _literal(refusals, "PRECEDENCE").items():
        for doc in ("absent", "not_json"):
            add(f"refusal {name}, {doc} document", *(a.replace("{doc}", f"{{{doc}}}")
                                                     for a in argv))
    add("refusal --K 13", "jsr", "{scalar}", "--m", "1", "--K", "13", "--length", "4")
    add("refusal --length 30000", "jsr", "{scalar}", "--m", "1", "--K", "2", "--length", "30000")
    add("refusal --max-length 0", "jsr", "{scalar}", "--m", "1", "--K", "2", "--max-length", "0")
    add("refusal under a raised cap", "jsr", "{scalar}", "--m", "1", "--K", "2", "--length",
        "3", "--max-length", "1")
    add("refusal repro --length 40", "repro-counterexample", "--length", "40")
    add("refusal --steps -1", "simulate", "{absent}", "--sigma", "0,1", "--steps", "-1")
    add("refusal --seed -1", "schedule", "{scalar}", "--C", "5.0", "--v0", "1.0", "--policy",
        "random", "--seed", "-1")
    add("refusal --w seed without a bound", "simulate", "{scalar}", "--sigma", "0,1",
        "--w", "seed:1")
    add("usage error", "bogus")
    for unbuffered in (False, True):
        add(f"usage error, stderr full, {MODES[unbuffered]}", "bogus", stderr="full",
            unbuffered=unbuffered)
    add("usage error --m one", "jsr", "{scalar}", "--m", "one", "--K", "2")
    add("missing document", "jsr", "{absent}", "--m", "1", "--K", "3")
    add("directory document", "mk-check", "{dir}", "--m", "1", "--K", "3")

    short_simulate = ("simulate", "{bounded}", "--sigma", "0,1,0")
    long_simulate = ("simulate", "{bounded}", "--sigma", "mk-worst:1,2", "--steps", "100000",
                     "--w", "seed:7")
    short_schedule = ("schedule", "{bounded}", "--rho-hat", "0.9", "--alpha-hat", "2",
                      "--steps", "3")
    long_schedule = short_schedule[:-1] + ("100000",)
    analyze = ("analyze", "{bounded}", "--method", "robust", "--rho", "0.6")
    for target in ("{absent}/file", "{dir}", "/dev/full"):
        for argv in (short_simulate, long_simulate, short_schedule, long_schedule, analyze):
            add(f"{argv[0]} {argv[-1]} --out {target}", *argv, "--out", target)
    add("simulate --out /dev/stdout, reader gone", *long_simulate, "--out", "/dev/stdout",
        stdout="gone")
    runs = {"help": ("--help",), "analyze help": ("analyze", "--help"), "analyze": analyze,
            "jsr": ("jsr", "{bounded}", "--m", "1", "--K", "3"),
            "simulate": short_simulate, "long simulate": long_simulate,
            "schedule": short_schedule, "long schedule": long_schedule}
    for unbuffered in (False, True):
        for stdout in ("full", "gone"):
            for name, argv in runs.items():
                add(f"{name}, stdout {stdout}, {MODES[unbuffered]}", *argv, stdout=stdout,
                    unbuffered=unbuffered)
    for name in ("help", "jsr"):
        add(f"{name}, stdout closed", *runs[name], stdout="closed")
    runs["jsr usage error"] = ("jsr", "{bounded}", "--m", "1")
    for unbuffered in (False, True):
        for name in ("help", "jsr", "jsr usage error", "analyze"):
            add(f"{name}, stderr closed, {MODES[unbuffered]}", *runs[name], stderr="closed",
                unbuffered=unbuffered)

    for seed in SEEDS:
        for workload, names in inputs.WORKLOAD_DOCUMENTS.items():
            directory = docs / f"{workload}-{seed}"
            directory.mkdir()
            written = documents.write_documents(names, seed, directory)
            for command in bench.workload_commands(workload, written, seed, work / "out"):
                add(f"benchmark {workload} seed {seed}: {command.name}", *command.args)
    return cases, paths


def _stream(kind: str, stack: ExitStack):
    """The ``stdout=`` or ``stderr=`` argument of :func:`subprocess.run` for ``kind``."""
    if kind == "pipe":
        return subprocess.PIPE
    if kind == "full":
        return stack.enter_context(open("/dev/full", "wb"))
    if kind == "gone":
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        stack.callback(os.close, write_fd)
        return write_fd
    if kind == "closed":
        return subprocess.DEVNULL  # closed in the child before it starts
    raise ValueError(f"unknown stream {kind!r}")


def execute(tree: Path, case: Case, paths: dict[str, str], env: dict[str, str]) -> Outcome:
    out = Path(paths["out"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    env = dict(env, PYTHONPATH=str(tree / "src"))
    if case.unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "convrate", *(arg.format(**paths) for arg in case.argv)]
    closed = [fd for fd, kind in ((1, case.stdout), (2, case.stderr)) if kind == "closed"]
    with ExitStack() as stack:
        result = subprocess.run(
            argv, stdin=subprocess.DEVNULL, stdout=_stream(case.stdout, stack),
            stderr=_stream(case.stderr, stack), env=env, cwd=out.parent, timeout=TIMEOUT,
            preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None)
    files = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    # a traceback names the tree's own files
    own = str(tree).encode()
    return Outcome(result.returncode, (result.stdout or b"").replace(own, b"<tree>"),
                   (result.stderr or b"").replace(own, b"<tree>"), files)


def _text_diff(label: str, old: bytes, new: bytes) -> list[str]:
    head = (f"  {label}: {len(old)} -> {len(new)} bytes, sha256 "
            f"{hashlib.sha256(old).hexdigest()[:12]} -> {hashlib.sha256(new).hexdigest()[:12]}")
    lines = difflib.unified_diff(old.decode(errors="replace").splitlines(),
                                 new.decode(errors="replace").splitlines(), lineterm="", n=0)
    body = [line for line in lines if not line.startswith(("---", "+++", "@@"))]
    shown = [f"    {line}" for line in body[:DIFF_LINES]]
    if len(body) > DIFF_LINES:
        shown.append(f"    ... {len(body) - DIFF_LINES} more lines")
    return [head, *shown]


def differences(old: Outcome, new: Outcome) -> list[str]:
    found = []
    if old.code != new.code:
        found.append(f"  exit code: {old.code} -> {new.code}")
    for label in ("stdout", "stderr"):
        if getattr(old, label) != getattr(new, label):
            found += _text_diff(label, getattr(old, label), getattr(new, label))
    for name in sorted(old.files.keys() | new.files.keys()):
        if old.files.get(name) != new.files.get(name):
            found.append(f"  out/{name}: sha256 {old.files.get(name, 'missing')} -> "
                         f"{new.files.get(name, 'missing')}")
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv]
    for tree in trees:
        if not (tree / "src" / "convrate" / "__init__.py").is_file():
            print(f"error: {tree}: no src/convrate", file=sys.stderr)
            return 2
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "PYTHONUNBUFFERED")}
    env.update({var: str(bench.BLAS_THREADS) for var in bench.THREAD_VARIABLES},
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="convrate-identity-") as scratch:
        cases, paths = matrix(Path(scratch))
        differing = 0
        for case in cases:
            old, new = (execute(tree, case, paths, env) for tree in trees)
            found = differences(old, new)
            if found:
                differing += 1
                print(f"differs: {case.name}", *found, sep="\n", flush=True)
    print(f"{differing} of {len(cases)} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
