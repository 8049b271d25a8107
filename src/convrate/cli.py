"""Command-line front end.

Subcommands: ``analyze`` (build abstraction parameters), ``mk-check``
(closed-form (m,K) verdict), ``simulate`` (plant/abstraction co-simulation
to CSV), ``jsr`` (brute-force averaged spectral radius), ``schedule``
(online gate decisions to CSV), and ``repro-counterexample`` (recompute the
built-in demo system's characteristic values).

Exit codes: 0 success / property proven; 1 not proven, guarantee violated,
alarm fired, or analysis infeasible, a refused over-cap search, or a reader
closed the stdout pipe; 2 usage, parse, or parameter errors, or a failed
read or write of a path. Every write, to ``--out`` or to stdout, help
included, goes through one file class that names its path on failure, so
one rule reports them all: ``error: <path>: <reason>``, with ``<stdout>``
for standard output (whose unwritten bytes are then discarded), except a
closed stdout pipe, which ends the run with exit 1 and no message. A stdout
closed before the command starts is ``error: <stdout>: Bad file
descriptor``, exit 2, before anything runs. A failed write to stderr is
dropped, so the exit code is the one the command would report, a usage
error's 2 included, whatever Python's version or buffering mode. Once the
command has returned, :func:`main` flushes stdout and stderr and leaves
through ``os._exit``, without the interpreter's teardown: no child process
or open ``--out`` file is left by then, and convrate registers no atexit
hook (one that the environment registers, e.g. a coverage tool's, is
skipped).

Each command imports the modules it runs, inside its function, so help
texts and usage errors, which argparse handles before any command runs,
load no numpy. ``jsr`` and ``repro-counterexample`` refuse an over-cap
search before numpy or the system document loads: the refusal and the
count it names need only (m, K) and the length, which the numpy-free
:mod:`convrate.mk` handles.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from contextlib import nullcontext
from io import BufferedWriter, FileIO, TextIOWrapper
from pathlib import Path

from .errors import DocumentError, ParameterError


def _parse_matrix_arg(value: str, flag: str):
    """Inline JSON matrix, or the path of a JSON file holding one."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        if os.path.exists(value):  # False for text too long to be a file name
            try:
                return json.loads(Path(value).read_text())
            except json.JSONDecodeError as exc:
                raise DocumentError(f"{flag}: {value}: {exc.msg}") from None
        raise DocumentError(f"{flag}: expected inline JSON or an existing file, got {value!r}") from None


def _build_params(system, args):
    from .builders import build_robustness_abstraction, lyapunov_abstraction

    if args.method == "robust":
        if args.rho is None:
            raise ParameterError("--rho is required for --method robust")
        return build_robustness_abstraction(system, args.rho, beta=args.beta)
    Q = None
    if args.Q is not None:
        Q = _parse_matrix_arg(args.Q, "--Q")
    return lyapunov_abstraction(system, Q)


def _parse_sigma(text: str, steps: int | None) -> tuple[int, ...]:
    if text.startswith("mk-worst:"):
        from .mk import MkConstraint
        from .sequences import worst_case_sequence

        try:
            m_text, k_text = text[len("mk-worst:"):].split(",")
            mk = MkConstraint(int(m_text), int(k_text))
        except (ValueError, TypeError):
            raise DocumentError(f"--sigma: malformed pattern {text!r}, expected mk-worst:m,K") from None
        if steps is None:
            raise ParameterError("--steps is required with an mk-worst sigma pattern")
        return worst_case_sequence(mk, steps)
    if os.path.exists(text):  # False for text too long to be a file name
        text = Path(text).read_text().replace("\n", ",").replace(" ", ",")
    try:
        entries = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise DocumentError(f"--sigma: could not parse mode list {text!r}") from None
    if not entries:
        raise DocumentError("--sigma: empty mode sequence")
    return entries


def _parse_x0(text: str, system):
    import numpy as np

    if text.startswith("dominant:"):
        from .sequences import transition_product

        try:
            modes = tuple(int(tok) for tok in text[len("dominant:"):].split(","))
        except ValueError:
            raise DocumentError(f"--x0: could not parse mode list {text!r}") from None
        product = transition_product(system, modes)
        values, vectors = np.linalg.eig(product)
        top = int(np.argmax(np.abs(values)))
        vector = vectors[:, top]
        if np.max(np.abs(vector.imag)) > 1e-9 * np.max(np.abs(vector.real) + 1e-300):
            raise ParameterError(
                "--x0 dominant: the dominant eigenvector is complex; pass coordinates explicitly"
            )
        vector = vector.real
        return vector / np.linalg.norm(vector)
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise DocumentError(f"--x0: could not parse vector {text!r}") from None


class _SeededDisturbances:
    """The rows of ``--w seed:<s>``, drawn as they are sliced, which must be in step
    order (as :class:`simulate.TraceStream` slices): directions from ``normals``,
    scaled to ``bound`` times ``uniforms``."""

    def __init__(self, normals, uniforms, bound: float, n: int):
        self._normals, self._uniforms, self._bound, self._n = normals, uniforms, bound, n

    def __getitem__(self, rows: slice):
        from .linalg import row_norms

        w = self._normals.standard_normal((rows.stop - rows.start, self._n))
        norms = row_norms(w)
        norms[norms == 0] = 1.0
        w /= norms[:, None]
        w *= (self._bound * self._uniforms.random(len(w)))[:, None]
        return w


def _make_disturbances(text: str, steps: int, system):
    """``(disturbances or None, w_bar or None)`` of ``--w``, for :class:`simulate.TraceStream`.

    ``zero`` is None and ``const:<v>`` one broadcast row. The slices of
    ``seed:<s>``, taken in step order, equal the rows of the one-shot draw
    ``standard_normal((steps, n))`` followed by ``random(steps)``: drawn
    block by block, the normals come out the same, and the uniforms are
    reached by drawing and discarding every normal on a twin generator,
    into one reused 64 KiB buffer.
    """
    import numpy as np

    if text == "zero":
        return None, None
    if text.startswith("const:"):
        try:
            magnitude = float(text[len("const:"):])
        except ValueError:
            raise DocumentError(f"--w: the magnitude of const:<v> must be a number, "
                                f"got {text!r}") from None
        if magnitude < 0:
            raise ParameterError("--w const: magnitude must be >= 0")
        row = np.pad([magnitude], (0, system.n - 1))  # the magnitude along the first axis
        return np.broadcast_to(row, (steps, system.n)), magnitude
    if text.startswith("seed:"):
        try:
            seed = int(text[len("seed:"):])
        except ValueError:
            seed = None
        if seed is None or seed < 0:
            raise ParameterError(f"--w: the seed of seed:<s> must be an integer >= 0, "
                                 f"got {text!r}")
        bound = system.disturbance_bound
        if bound is None:
            raise ParameterError(
                "--w seed: the system document declares no disturbance_bound"
            )
        normals, uniforms = np.random.default_rng(seed), np.random.default_rng(seed)
        skip = steps * system.n  # the state after N normals does not depend on their split
        discard = np.empty(1 << 13)
        while skip:
            skip -= uniforms.standard_normal(out=discard[:min(skip, discard.size)]).size
        return _SeededDisturbances(normals, uniforms, bound, system.n), bound
    raise DocumentError(f"--w: expected zero, const:<v> or seed:<s>, got {text!r}")


class _File(FileIO):
    """A file opened for writing, standard output included, whose failed writes name
    it (``<stdout>`` for fd 1), so that :func:`run` reports a path error: the OSError
    of a write, or of the flush or close that writes a buffer, names no path."""

    def write(self, data):
        try:
            return super().write(data)
        except OSError as exc:
            exc.filename = "<stdout>" if self.name == 1 else self.name
            raise


def _open_out(path: str) -> TextIOWrapper:
    """``path`` opened for writing text, as by ``open(path, "w")``, through :class:`_File`."""
    return TextIOWrapper(BufferedWriter(_File(path, "w")))


class _Stderr(FileIO):
    """Standard error, whose failed writes are dropped: it is where a failure would be
    reported, so the exit code stays the command's own, in either buffering mode (a
    failed flush of stderr at exit would otherwise make it 120)."""

    def write(self, data):
        try:
            return super().write(data)
        except OSError:
            return len(data)


def _rewrap(old: TextIOWrapper, raw_class) -> TextIOWrapper:
    """A stream over a ``raw_class`` on ``old``'s descriptor that encodes and buffers as
    ``old`` does (a ``FileIO`` buffer is Python's unbuffered mode)."""
    raw = raw_class(old.fileno(), "w", closefd=False)
    return TextIOWrapper(raw if isinstance(old.buffer, FileIO) else BufferedWriter(raw),
                         old.encoding, old.errors, line_buffering=old.line_buffering,
                         write_through=old.write_through)


def cmd_analyze(args) -> int:
    from .io import load_system, params_to_document

    system = load_system(args.system)
    params = _build_params(system, args)
    if args.out:  # a path that cannot be written fails before any line is printed
        with _open_out(args.out) as fileobj:
            fileobj.write(json.dumps(params_to_document(params), indent=2) + "\n")
    print(f"method: {params.method}")
    print(f"alpha: {params.alpha!r}")
    print(f"beta: {params.beta!r}")
    for mode in params.mode_ids():
        label = system.labels.get(mode, f"mode-{mode}")
        print(f"rho[{mode}]: {params.rho[mode]!r}  ({label})")
    for key, value in params.diagnostics.items():
        if key != "warnings":
            print(f"diagnostics.{key}: {value}")
    for warning in params.diagnostics.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_mk_check(args) -> int:
    from .io import load_system
    from .mk import MkConstraint, mk_verdict

    system = load_system(args.system)
    params = _build_params(system, args)
    mk = MkConstraint(args.m, args.K)
    verdict = mk_verdict(params, mk, r0=args.r0)
    record = {
        "m": mk.m,
        "K": mk.K,
        "m_bar": mk.m_bar,
        "rho_tilde": verdict.rho_tilde,
        "alpha_tilde": verdict.alpha_tilde,
        "combined_overshoot": verdict.combined_overshoot,
        "proven_stable": verdict.proven_stable,
    }
    if verdict.safe_initial_radius is not None:
        record["safe_initial_radius"] = verdict.safe_initial_radius
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(f"(m,K) = ({mk.m},{mk.K}), up to {mk.m_bar} skips per window")
        print(f"rho_tilde: {verdict.rho_tilde!r}")
        print(f"alpha_tilde: {verdict.alpha_tilde!r}")
        print(f"combined overshoot alpha*alpha_tilde: {verdict.combined_overshoot!r}")
        if verdict.safe_initial_radius is not None:
            print(f"safe initial radius: {verdict.safe_initial_radius!r}")
        if verdict.proven_stable:
            print("verdict: proven stable")
        else:
            print("verdict: not proven (the criterion is sufficient only; "
                  "run 'convrate jsr' for brute-force evidence)")
    return 0 if verdict.proven_stable else 1


def cmd_simulate(args) -> int:
    import numpy as np

    from .io import load_system
    from .simulate import TraceStream

    system = load_system(args.system)
    params = _build_params(system, args)
    seq = _parse_sigma(args.sigma, args.steps)
    steps = args.steps if args.steps is not None else len(seq)
    if steps > len(seq):
        raise ParameterError(f"--steps {steps} exceeds the sigma sequence length {len(seq)}")
    x0 = _parse_x0(args.x0, system) if args.x0 else np.ones(system.n) / math.sqrt(system.n)
    w, w_bar = _make_disturbances(args.w, steps, system)
    trace = TraceStream(system, params, seq, x0, w, w_bar, steps, args.rel_tol)
    with nullcontext(sys.stdout) if args.out in (None, "-") else _open_out(args.out) as fileobj:
        rows, report = trace.write_csv(fileobj)
        fileobj.flush()  # a failed write to stdout, too, fails before the verdict
    if rows <= steps:
        print(f"trace diverged: vbar exceeded the overflow guard at step {rows}",
              file=sys.stderr)
    if not report.holds:
        print(f"guarantee violated at k={report.first_violation}: "
              f"|x_k| > vbar_k (max ratio 1 + {report.max_ratio - 1.0:.6g})", file=sys.stderr)
        return 1
    print(f"guarantee holds; max |x_k|/vbar_k = {report.max_ratio:.6g}", file=sys.stderr)
    return 0


def cmd_jsr(args) -> int:
    from .mk import MkConstraint, check_enumeration_caps

    if args.max_length < 1:
        raise ParameterError(f"--max-length must be >= 1, got {args.max_length}")
    mk = MkConstraint(args.m, args.K)
    if args.length >= 1:  # a shorter length is the search's own refusal
        check_enumeration_caps(mk, args.length, args.max_length)
    from .io import load_system
    from .sequences import averaged_spectral_radius

    system = load_system(args.system)
    result = averaged_spectral_radius(system, mk, args.length, max_length=args.max_length)
    print(f"rho_hat_{args.length}({mk.m},{mk.K}) = {result.rho_hat!r}")
    print("attained by sigma = " + ",".join(str(s) for s in result.sequence))
    print(f"sequences evaluated: {result.count}")
    if result.rho_hat >= 1.0:
        print("rho_hat >= 1: some admissible length-"
              f"{args.length} product fails to contract; if the attaining "
              "sequence extends periodically within the constraint, the "
              "system is unstable", file=sys.stderr)
    return 0


def cmd_schedule(args) -> int:
    from .io import load_system
    from .scheduler import POLICIES, ExponentialTarget, PracticalTarget, ScheduleStream

    if args.seed is not None and args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    system = load_system(args.system)
    params = _build_params(system, args)
    if args.C is not None:
        if args.rho_hat is not None or args.alpha_hat is not None:
            raise ParameterError("--C and --rho-hat/--alpha-hat are mutually exclusive")
        target = PracticalTarget(args.C)
    else:
        if args.rho_hat is None or args.alpha_hat is None:
            raise ParameterError("provide either --C or both --rho-hat and --alpha-hat")
        target = ExponentialTarget(args.rho_hat, args.alpha_hat)
    policy = POLICIES[args.policy]()
    w_bar = args.w_bar
    if w_bar is None:
        w_bar = system.disturbance_bound if isinstance(target, PracticalTarget) else 0.0
    stream = ScheduleStream(params, target, args.steps, policy=policy, w_bar=w_bar,
                            v0=args.v0, seed=args.seed)
    with nullcontext(sys.stdout) if args.out in (None, "-") else _open_out(args.out) as fileobj:
        alarm = stream.write_csv(fileobj)
        fileobj.flush()
    if alarm is not None:
        k, text = alarm
        print(f"alarm at k={k}: {text}", file=sys.stderr)
        return 1
    return 0


def cmd_repro_counterexample(args) -> int:
    from .mk import ENUMERATION_CAP, MkConstraint, check_enumeration_caps

    # the report's own refusal, before numpy loads: the command has no flag that
    # raises the cap, so the refusal offers only a shorter length
    check_enumeration_caps(MkConstraint(1, 2), args.length, ENUMERATION_CAP, "reduce the length")
    from . import counterexample

    rep = counterexample.report(length=args.length)
    print(counterexample.format_report(rep))
    return 0 if rep.passed else 1


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=("robust", "lyapunov"), default="lyapunov",
                        help="abstraction construction route (default: lyapunov)")
    parser.add_argument("--rho", type=float, default=None,
                        help="nominal decay rate (required for --method robust)")
    parser.add_argument("--beta", type=float, default=None,
                        help="disturbance gain; defaults to its smallest admissible value")
    parser.add_argument("--Q", default=None,
                        help="Lyapunov weight matrix as inline JSON or a JSON file path")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help fails as any other write to stdout does: argparse
    drops the OSError of each write that it makes itself (and still does so for its
    messages to stderr), so help on a full stdout would be lost with exit 0."""

    def print_help(self, file=None):
        (sys.stdout if file is None else file).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convrate",
        description="Convergence rate abstractions for weakly-hard control: "
                    "analysis, verification, simulation, scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build abstraction parameters for a system")
    p.add_argument("system", help="system document (JSON)")
    _add_params_flags(p)
    p.add_argument("--out", default=None, help="also write the parameters as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("mk-check", help="closed-form (m,K) stability verdict")
    p.add_argument("system")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    _add_params_flags(p)
    p.add_argument("--r0", type=float, default=None,
                   help="radius of the region where the abstraction is valid; "
                        "reports the safe initial radius")
    p.add_argument("--json", action="store_true", help="emit a machine-readable record")
    p.set_defaults(func=cmd_mk_check)

    p = sub.add_parser("simulate", help="co-simulate plant and abstraction to CSV")
    p.add_argument("system")
    p.add_argument("--sigma", required=True,
                   help="mode sequence: 'mk-worst:m,K', a comma list, or a file")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--x0", default=None,
                   help="initial state: comma list, or 'dominant:<sigma window>' for the "
                        "dominant eigenvector of that window's transition product")
    p.add_argument("--w", default="zero", help="disturbance: zero | const:<v> | seed:<s>")
    p.add_argument("--rel-tol", type=float, default=1e-9,
                   help="relative slack of the guarantee check")
    _add_params_flags(p)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("jsr", help="brute-force averaged spectral radius over (m,K) sequences")
    p.add_argument("system")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--length", type=int, default=24)
    p.add_argument("--max-length", dest="max_length", type=int, default=24,
                   help="enumeration cap; lengths beyond it are refused with "
                        "the would-be sequence count")
    p.set_defaults(func=cmd_jsr)

    p = sub.add_parser("schedule", help="run the online scheduling gate, decisions to CSV")
    p.add_argument("system")
    _add_params_flags(p)
    p.add_argument("--rho-hat", dest="rho_hat", type=float, default=None)
    p.add_argument("--alpha-hat", dest="alpha_hat", type=float, default=None)
    p.add_argument("--C", type=float, default=None, help="practical-stability state bound")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--policy", choices=("greedy", "random", "round-robin"), default="greedy")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--w-bar", dest="w_bar", type=float, default=None,
                   help="per-step disturbance bound (practical mode); defaults to the "
                        "document's disturbance_bound")
    p.add_argument("--v0", type=float, default=None,
                   help="initial abstraction value for practical mode")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("repro-counterexample",
                       help="recompute the built-in demo system's reference values")
    p.add_argument("--length", type=int, default=24,
                   help="brute-force sequence length, at most the enumeration cap 24 "
                        "(reference brackets need 24; longer lengths are refused)")
    p.set_defaults(func=cmd_repro_counterexample)

    return parser


def run(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            if getattr(args, "steps", None) is not None and args.steps < 0:  # simulate, schedule
                raise ParameterError(f"--steps must be >= 0, got {args.steps}")
            code = args.func(args)
        except SystemExit as exc:  # help, or a usage error that argparse has printed
            code = exc.code
        except (ValueError, LookupError) as exc:
            # str() of a KeyError is the repr of its message
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            code = 2
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()  # a failed write to stdout fails here at the latest, not at exit
        return code
    except OSError as exc:
        if exc.filename is None:  # not about a path, e.g. a failed fork
            raise
        if exc.filename == "<stdout>":
            # Python flushes stdout again at exit, so point it at devnull first: what
            # stdout still buffers goes there, with no traceback and no second error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            if isinstance(exc, BrokenPipeError):  # the reader closed stdout (e.g. ``| head``)
                return 1
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def main() -> None:
    # started with stderr closed, e.g. ``convrate --help 2>&-``, sys.stderr is None, and
    # print(file=None) and argparse's usage would write to stdout instead
    sys.stderr = open(os.devnull, "w") if sys.stderr is None else _rewrap(sys.stderr, _Stderr)
    if sys.stdout is None:  # started with stdout closed, e.g. ``convrate --help >&-``
        print(f"error: <stdout>: {os.strerror(errno.EBADF)}", file=sys.stderr)
        sys.exit(2)
    sys.stdout = _rewrap(sys.stdout, _File)
    code = run()
    sys.stdout.flush()
    sys.stderr.flush()
    # every child has been waited for and every --out file closed, so the interpreter's
    # teardown (9-30 ms) would only free memory
    os._exit(code)
