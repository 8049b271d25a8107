"""Shared generators for randomized suites (seeded, reproducible), and the probe
of the modules a fresh interpreter loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import convrate
from convrate import SystemModel, spectral_radius

SRC = str(Path(convrate.__file__).resolve().parents[1])

#: The top-level modules that :func:`loaded_modules` reports, with their submodules:
#: numpy, the package, and the standard-library modules that only some commands need.
PROBED = ("numpy", "convrate", "pickle", "fcntl", "concurrent", "multiprocessing")


def probe(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter, and last one more line
    naming the modules of ``PROBED`` that it loaded."""
    code += ("\nimport sys\nprint(' '.join(m for m in sys.modules "
             f"if m.split('.')[0] in {PROBED!r}))")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


def loaded_modules(code: str) -> set[str]:
    """The modules of ``PROBED`` loaded after running ``code`` in a fresh interpreter."""
    return set(probe(code)[-1].split())


def random_stable_matrix(rng: np.random.Generator, n: int,
                         max_radius: float = 0.9) -> np.ndarray:
    """Random matrix rescaled to a spectral radius uniform in (0.1, max_radius]."""
    while True:
        M = rng.standard_normal((n, n))
        radius = spectral_radius(M)
        if radius > 1e-9:
            target = rng.uniform(0.1, max_radius)
            return M * (target / radius)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    B = rng.standard_normal((n, n))
    return B @ B.T + 0.1 * np.eye(n)


def two_mode_system(rng: np.random.Generator, n: int | None = None,
                    perturbation: float = 1.0,
                    disturbance_bound: float | None = None,
                    cost_weight: np.ndarray | None = None) -> SystemModel:
    """Schur-stable nominal mode plus a random (possibly unstable) skip mode."""
    if n is None:
        n = int(rng.integers(2, 5))
    A0 = random_stable_matrix(rng, n)
    A1 = A0 + perturbation * rng.standard_normal((n, n)) / np.sqrt(n)
    return SystemModel(modes={0: A0, 1: A1}, disturbance_bound=disturbance_bound,
                       cost_weight=cost_weight)


def valid_rho_for(A0: np.ndarray, rng: np.random.Generator) -> float:
    """A decay rate strictly between the spectral radius and one."""
    radius = spectral_radius(A0)
    return radius + (1.0 - radius) * rng.uniform(0.3, 0.8)
