import numpy as np

from convrate import MkConstraint, spectral_radius, validate_mk
from convrate import counterexample


def test_system_shape():
    demo = counterexample.system()
    assert demo.n == 3
    assert demo.mode_ids() == (0, 1)
    assert spectral_radius(demo.modes[0]) == 0.5


def test_report_passes_at_reduced_length():
    # length 16 keeps the strict inequality checks valid and runs fast;
    # the bracket checks are only applied at the full length 24
    rep = counterexample.report(length=16)
    assert rep.passed
    assert not rep.verdict_12.proven_stable
    assert rep.jsr_12.rho_hat < 0.9
    assert rep.jsr_24.rho_hat > (1000.0 * 0.25) ** 0.25
    assert validate_mk(rep.jsr_24.sequence, MkConstraint(2, 4))


def test_format_contains_conservatism_pair():
    rep = counterexample.report(length=16)
    text = counterexample.format_report(rep)
    assert "closed-form (1,2) verdict: not proven" in text
    assert "rho_hat_16(1,2)" in text
    assert "conservative" in text
    assert text.count("PASS") >= len(rep.checks)


def test_brute_force_line_claims_no_certificate():
    # rho_hat bounds the constrained JSR from neither side: evidence, never a proof
    text = counterexample.format_report(counterexample.report(length=16))
    assert "in fact stable" not in text
    assert "not a certificate of stability" in text
    assert "lower bound" not in text
    assert text.endswith("overall: PASS")


def test_maximising_word_cannot_repeat():
    # why rho_hat is no lower bound on the constrained JSR: the (1,2) maximiser
    # starts and ends with a skip, so its repetition holds two skips in a row
    sequence = counterexample.report(length=16).jsr_12.sequence
    assert validate_mk(sequence, MkConstraint(1, 2))
    assert not validate_mk(sequence + sequence, MkConstraint(1, 2))


def test_brute_force_line_follows_the_value():
    # at length 5 the (1,2) maximiser expands: the line says so, and claims no stability
    rep = counterexample.report(length=5)
    assert rep.jsr_12.rho_hat >= 1.0
    line = next(line for line in counterexample.format_report(rep).splitlines()
                if "brute force" in line)
    assert line.startswith(f"  brute force rho_hat_5(1,2) = {rep.jsr_12.rho_hat:.6g} >= 1: "
                           "some admissible length-5 product does not contract; ")
    assert "conservative" not in line and "expands" not in line
