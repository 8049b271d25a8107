"""JSON document format for systems and abstraction parameters.

A system document is a single hand-editable JSON file:

.. code-block:: json

    {
      "name": "cruise",
      "modes": [
        {"id": 0, "label": "execute", "A": [[0.5]]},
        {"id": 1, "label": "skip",    "A": [[1.2]]}
      ],
      "disturbance_bound": 0.1,
      "cost_weight_Q": [[1.0]]
    }

Only ``name`` and ``modes`` are required; other keys are ignored.
Documents written by :func:`save_system` re-parse to an identical
:class:`SystemModel` (floats round-trip exactly through JSON).

The parser checks the JSON shape: types, required keys, unique mode ids
and square lists of numbers. :class:`SystemModel` checks the meaning (mode
0 present, one matrix size, the ranges of the bound and the cost weight),
and its errors come back as :class:`DocumentError` too.

Both CSV tables (trace and decisions) are written here too:
:func:`write_table` writes a table one block of rows at a time, rendering
each block while a child process (:func:`_forked`) computes the next.
"""

from __future__ import annotations

import json
import os
import pickle
from contextlib import contextmanager
from pathlib import Path

from .errors import DocumentError
from .model import AbstractionParams, SystemModel


#: Rows rendered per block of a CSV table.
CSV_BLOCK_ROWS = 1 << 12
#: Pipe capacity asked for by :func:`_forked`: a pickled block of trace rows is
#: ~165 KB, so with the default 64 KiB the child would stall on every block.
PIPE_BYTES = 1 << 20


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _as_matrix(value, context: str) -> list[list[float]]:
    _require(isinstance(value, list) and value, f"{context}: expected a non-empty matrix")
    rows = len(value)
    for i, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == rows,
                 f"{context}: row {i} must be a list of {rows} numbers (square matrix)")
        for j, entry in enumerate(row):
            _require(isinstance(entry, (int, float)) and not isinstance(entry, bool),
                     f"{context}[{i}][{j}]: expected a number, got {entry!r}")
    return value


def system_from_document(doc: dict) -> SystemModel:
    """Validate a parsed document and build the system it describes."""
    _require(isinstance(doc, dict), "document root must be an object")
    name = doc.get("name", "system")
    _require(isinstance(name, str), "name: expected a string")
    raw_modes = doc.get("modes")
    _require(isinstance(raw_modes, list) and raw_modes,
             "modes: expected a non-empty list of mode objects")
    modes: dict[int, list] = {}
    labels: dict[int, str] = {}
    for i, entry in enumerate(raw_modes):
        context = f"modes[{i}]"
        _require(isinstance(entry, dict), f"{context}: expected an object")
        _require("id" in entry, f"{context}: missing field 'id'")
        mode_id = entry["id"]
        _require(isinstance(mode_id, int) and not isinstance(mode_id, bool),
                 f"{context}.id: expected a non-negative integer, got {mode_id!r}")
        _require(mode_id not in modes, f"{context}.id: duplicate mode id {mode_id}")
        _require("A" in entry, f"{context}: missing field 'A'")
        modes[mode_id] = _as_matrix(entry["A"], f"{context}.A")
        label = entry.get("label", f"mode-{mode_id}")
        _require(isinstance(label, str), f"{context}.label: expected a string")
        labels[mode_id] = label
    bound = doc.get("disturbance_bound")
    if bound is not None:
        _require(isinstance(bound, (int, float)) and not isinstance(bound, bool),
                 f"disturbance_bound: expected a number, got {bound!r}")
    cost = doc.get("cost_weight_Q")
    if cost is not None:
        _as_matrix(cost, "cost_weight_Q")
    try:
        return SystemModel(modes=modes, disturbance_bound=bound, cost_weight=cost,
                           name=name, labels=labels)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def system_to_document(system: SystemModel) -> dict:
    doc: dict = {
        "name": system.name,
        "modes": [
            {
                "id": mode,
                "label": system.labels.get(mode, f"mode-{mode}"),
                "A": system.modes[mode].tolist(),
            }
            for mode in system.mode_ids()
        ],
    }
    if system.disturbance_bound is not None:
        doc["disturbance_bound"] = system.disturbance_bound
    if system.cost_weight is not None:
        doc["cost_weight_Q"] = system.cost_weight.tolist()
    return doc


def load_system(path) -> SystemModel:
    """Read and validate a system document from a JSON file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    try:
        return system_from_document(doc)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def save_system(system: SystemModel, path) -> None:
    Path(path).write_text(json.dumps(system_to_document(system), indent=2) + "\n")


def params_to_document(params: AbstractionParams) -> dict:
    doc: dict = {
        "alpha": params.alpha,
        "beta": params.beta,
        "rho": {str(mode): rate for mode, rate in sorted(params.rho.items())},
        "method": params.method,
    }
    if params.lyapunov_P is not None:
        doc["lyapunov_P"] = params.lyapunov_P.tolist()
    if params.diagnostics:
        doc["diagnostics"] = params.diagnostics
    return doc


def write_table(fileobj, header, cells, blocks):
    """Write a CSV table to ``fileobj``: the ``header`` line, then the rows of each block of
    the generator ``blocks``, whose cells ``cells(*block)`` gives column by column, each
    line ending in a newline; return what ``blocks`` returns. ``blocks`` runs in a child
    process (:func:`_forked`) while this one renders and writes each block it receives."""
    with _forked(blocks) as received:
        fileobj.write(",".join(header) + "\n")  # after the fork: a reader of it sees the child
        while True:
            try:
                block = next(received)
            except StopIteration as end:
                return end.value
            fileobj.write("\n".join(map(",".join, zip(*cells(*block)))) + "\n")


@contextmanager
def _forked(blocks):
    """The items of the generator ``blocks``, computed in a forked child process.

    The child runs ``blocks``, pickles each item through a pipe and then
    sends the exception that ended it. For the ``StopIteration`` of a
    ``blocks`` that returned, the generator yielded here returns its value;
    any other exception is raised here. The child writes nothing else and
    leaves through ``os._exit``. On leaving the context, by any path, the
    pipe is closed and the child waited for (a child still writing fails on
    the closed pipe). Where ``os.fork`` is missing, ``blocks`` runs in this
    process.
    """
    if not hasattr(os, "fork"):
        yield blocks
        return
    import fcntl

    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (AttributeError, OSError):  # no such command, or over the per-user quota
        pass
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _produce(blocks, write_fd)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        yield _received(pipe)
    finally:  # closed first: a child blocked on a full pipe then fails and leaves
        pipe.close()
        os.waitpid(pid, 0)


def _produce(blocks, fd: int):
    """The child of :func:`_forked`: send every item of ``blocks``, then the exception
    that ended it, and leave."""
    try:
        with open(fd, "wb") as pipe:
            try:
                while True:
                    pickle.dump(next(blocks), pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            except BaseException as exc:  # StopIteration too: it carries the return value
                try:
                    last = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
                except Exception:  # an exception that does not survive pickling
                    last = RuntimeError(f"{type(exc).__name__}: {exc}")
            pickle.dump(last, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)  # no atexit handler, no flush of the buffers copied at the fork


def _received(pipe):
    """The items that :func:`_produce` sends; returns the value of the StopIteration it
    sends last."""
    while True:
        try:
            item = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # no item, or a block cut short
            raise RuntimeError("the stream's child process ended early") from None
        if isinstance(item, StopIteration):
            return item.value
        if isinstance(item, BaseException):
            raise item
        yield item
