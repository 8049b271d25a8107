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

Both CSV tables (trace and decisions) are rendered here too:
:func:`csv_blocks` joins the cells of each block of rows it is given, column
by column, so a writer streams a table one block at a time.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DocumentError
from .model import AbstractionParams, SystemModel


#: Rows rendered per block of a CSV table.
CSV_BLOCK_ROWS = 1 << 12


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


def csv_blocks(header, blocks):
    """CSV lines of a table, header first, one list per block of rows.

    Each block of ``blocks`` holds the cells of its rows column by column.
    A writer that consumes the lines one block at a time, as the blocks are
    made, holds at most ``CSV_BLOCK_ROWS`` rows of text.
    """
    yield [",".join(header)]
    for columns in blocks:
        yield list(map(",".join, zip(*columns)))


def write_csv(blocks, fileobj) -> None:
    """Write :func:`csv_blocks` lines, newline-terminated, one block at a time."""
    for block in blocks:
        fileobj.write("\n".join(block) + "\n")
