"""Seeded system documents, generated with numpy from the run's seed.

Every system document the benchmark hands to convrate comes from here;
the program sees nothing else. The shapes are chosen so that the amount of
work does not depend on the seed:

* ``jsr8``: two 8x8 modes scaled to unit spectral norm, so every length-20
  product stays finite and the search evaluates a seed-independent count.
* ``gate4``: a symmetric nominal mode with spectral radius < 0.6 (so the
  robust route at rho=0.6 gives k_tilde=1 and beta=1) and a skip mode at
  distance 0.75 from it, so rho[1] = 1.35 and the greedy gate at
  rho_hat=0.9 skips about half the time without an alarm.
* ``jordan4``: an orthogonal similarity of a 2x2 Jordan block at 0.5 plus
  two smaller eigenvalues. The spectral norm is similarity-invariant, so
  k_tilde at rho just above 0.5 is the same for every seed.
* ``sys32``: a symmetric n=32 nominal mode with spectral radius <= 0.5 and a
  skip mode at distance 0.8. In the ellipsoidal norm of P = (I - A0^2)^-1 the
  rates satisfy rho0 <= 0.5 and rho1 <= 1.3 / sqrt(0.75) < 1.51, so the
  abstraction stays bounded under the alternating mk-worst:1,2 pattern.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _unit_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g / np.linalg.norm(g, 2)


def _document(name: str, nominal: np.ndarray, skip: np.ndarray,
              disturbance_bound: float | None = None) -> dict:
    doc = {
        "name": name,
        "modes": [
            {"id": 0, "label": "execute", "A": nominal.tolist()},
            {"id": 1, "label": "skip", "A": skip.tolist()},
        ],
    }
    if disturbance_bound is not None:
        doc["disturbance_bound"] = disturbance_bound
    return doc


def _jsr8(rng: np.random.Generator) -> dict:
    modes = [rng.standard_normal((8, 8)) for _ in range(2)]
    nominal, skip = (a / np.linalg.norm(a, 2) for a in modes)
    return _document("jsr8", nominal, skip)


def _gate4(rng: np.random.Generator) -> dict:
    q = _orthogonal(rng, 4)
    nominal = q @ np.diag(rng.uniform(-0.5, 0.5, 4)) @ q.T
    return _document("gate4", nominal, nominal + 0.75 * _unit_direction(rng, 4), 0.1)


def _jordan4(rng: np.random.Generator) -> dict:
    block = np.diag([0.5, 0.5, *rng.uniform(-0.3, 0.3, 2)])
    block[0, 1] = 1.0
    q = _orthogonal(rng, 4)
    nominal = q @ block @ q.T
    return _document("jordan4", nominal, nominal + 0.5 * _unit_direction(rng, 4))


def _sys32(rng: np.random.Generator) -> dict:
    q = _orthogonal(rng, 32)
    nominal = q @ np.diag(rng.uniform(-0.5, 0.5, 32)) @ q.T
    return _document("sys32", nominal, nominal + 0.8 * _unit_direction(rng, 32), 0.01)


_GENERATORS = {"jsr8": _jsr8, "gate4": _gate4, "jordan4": _jordan4, "sys32": _sys32}


def write_documents(names, seed: int, directory: Path) -> dict[str, Path]:
    """Write each named document for ``seed`` into ``directory``; return the paths.

    Each document draws from its own stream, ``default_rng([seed, index])``,
    so a document does not change with the set it is generated alongside.
    """
    order = tuple(_GENERATORS)
    paths = {}
    for name in names:
        rng = np.random.default_rng([seed, order.index(name)])
        path = directory / f"{name}.json"
        path.write_text(json.dumps(_GENERATORS[name](rng)) + "\n")
        paths[name] = path
    return paths
