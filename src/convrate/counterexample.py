"""Built-in 3x3 two-mode demo system with a surprising stability profile.

The system (a = 1/2, c = 1000) is exponentially stable under (1,2)-weak
execution yet unstable under (2,4)-weak execution, although both allow the
same long-run skip ratio. It therefore doubles as a counterexample to any
hope that the closed-form two-rate criterion could be necessary: the
criterion cannot prove (1,2) stability here (the skip mode's gain is huge),
while brute-force sequence search finds no expanding (1,2) product. That
search bounds the constrained joint spectral radius from neither side (its
maximising word need not repeat within the constraint), so the report
presents it as evidence, not as a stability certificate.

:func:`report` recomputes the characteristic quantities, compares each to
its closed-form reference, and pairs the conservative closed-form verdict
with the brute-force evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builders import build_robustness_abstraction
from .linalg import eigenvalues, spectral_norm
from .mk import (
    ENUMERATION_CAP,
    MkConstraint,
    StabilityVerdict,
    check_enumeration_caps,
    mk_verdict,
)
from .model import SystemModel
from .sequences import JsrResult, averaged_spectral_radius

A_VALUE = 0.5
C_VALUE = 1000.0

#: Decay rate used for the closed-form verdict; any value in (1/2, 1) works,
#: 0.9 keeps k_tilde = 1 and alpha_min = 1.
NOMINAL_RHO = 0.9


def system() -> SystemModel:
    """The two-mode demo system."""
    a, c = A_VALUE, C_VALUE
    A0 = np.array([[a, 0.0, a], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A1 = np.array([[a, 0.0, 0.0], [c, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SystemModel(modes={0: A0, 1: A1}, name="demo-counterexample",
                       labels={0: "execute", 1: "skip"})


@dataclass(frozen=True)
class CheckRow:
    """One recomputed quantity next to its reference."""

    name: str
    value: float
    reference: float
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckRow, ...]
    verdict_12: StabilityVerdict
    jsr_12: JsrResult
    jsr_24: JsrResult
    length: int
    passed: bool


def report(length: int = 24) -> Report:
    """Recompute all characteristic values and compare against references.

    The bracket checks on the brute-force radii are calibrated for the
    default length 24; for other lengths only the strict inequalities that
    hold at any multiple of 4 are applied. A length above the enumeration
    cap (``mk.ENUMERATION_CAP``) raises ``ResourceCapError`` before any
    search; the report has no way to raise the cap, so the message offers
    only a shorter length.
    """
    check_enumeration_caps(MkConstraint(1, 2), length, ENUMERATION_CAP, "reduce the length")
    a, c = A_VALUE, C_VALUE
    demo = system()
    checks: list[CheckRow] = []

    def add(name, value, reference, ok, detail=""):
        checks.append(CheckRow(name, float(value), float(reference), bool(ok), detail))

    norm_a0 = spectral_norm(demo.modes[0])
    add("norm_A0", norm_a0, math.sqrt(2) * a, abs(norm_a0 - math.sqrt(2) * a) <= 1e-9)
    norm_a1 = spectral_norm(demo.modes[1])
    add("norm_A1", norm_a1, math.sqrt(a * a + c * c),
        abs(norm_a1 - math.sqrt(a * a + c * c)) <= 1e-9)
    norm_prod = spectral_norm(demo.modes[0] @ demo.modes[1])
    add("norm_A0A1", norm_prod, math.sqrt(a**4 + a**2),
        abs(norm_prod - math.sqrt(a**4 + a**2)) <= 1e-9)

    four_step = demo.modes[1] @ demo.modes[1] @ demo.modes[0] @ demo.modes[0]
    eigs = sorted(abs(val) for val in eigenvalues(four_step))
    dominant = a**4 + c * a * a
    ok_eigs = (abs(eigs[0]) <= 1e-6 and abs(eigs[1]) <= 1e-6
               and abs(eigs[2] - dominant) <= 1e-6)
    add("eigenvalues_A1A1A0A0", eigs[2], dominant, ok_eigs,
        detail="remaining eigenvalues 0, 0")

    jsr_12 = averaged_spectral_radius(demo, MkConstraint(1, 2), length)
    ok_12 = jsr_12.rho_hat < 0.9
    if length == 24:
        ok_12 = ok_12 and 0.70 <= jsr_12.rho_hat <= 0.72
    add(f"rho_hat_{length}(1,2)", jsr_12.rho_hat, 0.71, ok_12,
        detail="< 0.9: no expanding (1,2) product of this length")

    jsr_24 = averaged_spectral_radius(demo, MkConstraint(2, 4), length)
    # the periodic skip pattern attains dominant^(1/4) exactly; the strict
    # instability bound is against the slightly smaller (c a^2)^(1/4)
    attained = dominant ** 0.25
    unstable_floor = (c * a * a) ** 0.25
    ok_24 = (jsr_24.rho_hat >= attained - 1e-9
             and jsr_24.rho_hat > unstable_floor)
    if length == 24:
        ok_24 = ok_24 and 3.976 <= jsr_24.rho_hat <= 3.977
    add(f"rho_hat_{length}(2,4)", jsr_24.rho_hat, attained, ok_24,
        detail=f"> {unstable_floor:.6g}: unstable under (2,4)")

    params = build_robustness_abstraction(demo, NOMINAL_RHO)
    verdict = mk_verdict(params, MkConstraint(1, 2))
    add("closed_form_(1,2)_not_proven", verdict.rho_tilde, 1.0,
        not verdict.proven_stable,
        detail="rho_tilde >= 1: the sufficient criterion cannot prove (1,2)")

    passed = all(row.ok for row in checks)
    return Report(checks=tuple(checks), verdict_12=verdict, jsr_12=jsr_12,
                  jsr_24=jsr_24, length=length, passed=passed)


def format_report(rep: Report) -> str:
    """Human-readable rendering with one PASS/FAIL line per check."""
    lines = [f"demo counterexample (a={A_VALUE}, c={C_VALUE}), sequence length {rep.length}"]
    for row in rep.checks:
        status = "PASS" if row.ok else "FAIL"
        detail = f"  [{row.detail}]" if row.detail else ""
        lines.append(f"  {status}  {row.name}: {row.value!r} (reference {row.reference!r}){detail}")
    lines.append("conservatism of the closed-form criterion:")
    lines.append(
        f"  closed-form (1,2) verdict: not proven "
        f"(rho_tilde={rep.verdict_12.rho_tilde:.6g} >= 1)"
        if not rep.verdict_12.proven_stable else
        f"  closed-form (1,2) verdict: proven (rho_tilde={rep.verdict_12.rho_tilde:.6g})"
    )
    rho_hat = rep.jsr_12.rho_hat
    claim = (f"< 1: no admissible length-{rep.length} product expands; this is evidence "
             "that the closed-form criterion is conservative here, not a certificate of "
             "stability," if rho_hat < 1.0 else
             f">= 1: some admissible length-{rep.length} product does not contract; this "
             "is not a proof of instability,")
    lines.append(f"  brute force rho_hat_{rep.length}(1,2) = {rho_hat:.6g} {claim} and no "
                 "bound on the constrained JSR (its maximising word need not repeat)")
    lines.append(f"overall: {'PASS' if rep.passed else 'FAIL'}")
    return "\n".join(lines)
