import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references

from convrate import (
    AbstractionParams,
    DimensionError,
    GuaranteeReport,
    MkConstraint,
    ParameterError,
    SystemModel,
    Trace,
    check_guarantee,
    co_simulate,
    cost_bound,
    cost_transform,
    kappa,
    lyapunov_abstraction,
    random_mk_sequence,
    simulate_abstraction,
    simulate_plant,
    trace_csv_lines,
)
from convrate import counterexample
from convrate.io import CSV_BLOCK_ROWS
from convrate.simulate import TRACE_COLUMNS, TraceStream, _float_cells
from conftest import random_spd, two_mode_system, valid_rho_for

SCALAR = SystemModel(modes={0: [[0.5]], 1: [[1.2]]})
PARAMS = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 1.2})


class TestSimulatePlant:
    def test_scalar_powers(self):
        states = simulate_plant(SCALAR, (0, 0, 0), [1.0])
        assert states[:, 0] == pytest.approx([1.0, 0.5, 0.25, 0.125])

    def test_disturbance_impulse(self):
        system = SystemModel(modes={0: np.zeros((2, 2))})
        w = np.zeros((2, 2))
        w[0] = [1.0, 0.0]
        states = simulate_plant(system, (0, 0), [0.0, 0.0], w)
        assert np.array_equal(states[1], [1.0, 0.0])
        assert np.array_equal(states[2], [0.0, 0.0])

    def test_demo_unstable_periodic_growth(self):
        demo = counterexample.system()
        pattern = (0, 0, 1, 1) * 6
        product = demo.modes[1] @ demo.modes[1] @ demo.modes[0] @ demo.modes[0]
        values, vectors = np.linalg.eig(product)
        x0 = vectors[:, int(np.argmax(np.abs(values)))].real
        x0 /= np.linalg.norm(x0)
        states = simulate_plant(demo, pattern, x0)
        norms = np.linalg.norm(states, axis=1)
        for i in range(1, 7):
            assert norms[4 * i] > 250.0**i

    def test_bound_enforced(self):
        system = SystemModel(modes={0: [[0.5]]}, disturbance_bound=0.1)
        with pytest.raises(ParameterError, match="disturbance bound"):
            simulate_plant(system, (0,), [1.0], [[0.2]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            simulate_plant(SCALAR, (0,), [1.0, 2.0])

    def test_empty_horizon_with_bound(self):
        # no step is taken, so there is no disturbance to check against the bound
        system = SystemModel(modes={0: [[0.5]]}, disturbance_bound=0.1)
        states = simulate_plant(system, (0,), [1.0], [[0.05]], horizon=0)
        assert np.array_equal(states, [[1.0]])
        trace = co_simulate(system, AbstractionParams(1.0, 1.0, {0: 0.5}), (0,), [1.0],
                            [[0.05]], horizon=0)
        assert len(trace) == 1

    def test_first_undeclared_mode_named(self):
        with pytest.raises(KeyError, match="mode 3 is not declared"):
            simulate_plant(SCALAR, (0, 3, 0, 4), [1.0])


class TestSimulateAbstraction:
    def test_nominal_decay(self):
        series = simulate_abstraction(PARAMS, (0, 0, 0), 1.0)
        assert series == pytest.approx([1.0, 0.5, 0.25, 0.125])

    def test_mixed_modes(self):
        series = simulate_abstraction(PARAMS, (0, 1, 0), 1.0)
        assert series[-1] == pytest.approx(0.3, abs=1e-15)

    def test_disturbance_gain(self):
        params = AbstractionParams(alpha=1.0, beta=2.0, rho={0: 0.5})
        series = simulate_abstraction(params, (0, 0), 0.0, w_bar=[1.0, 0.0])
        assert series == pytest.approx([0.0, 2.0, 1.0])

    def test_negative_w_bar_rejected(self):
        with pytest.raises(ParameterError):
            simulate_abstraction(PARAMS, (0,), 1.0, w_bar=[-0.1])

    def test_w_bar_is_checked_where_it_is_read(self):
        # entries past the horizon are never read, so they are not checked
        series = simulate_abstraction(PARAMS, (0,), 1.0, w_bar=[0.0, math.nan])
        assert len(series) == 2
        with pytest.raises(ParameterError, match="w_bar must be finite and >= 0, got nan"):
            simulate_abstraction(PARAMS, (0, 0), 1.0, w_bar=[0.0, math.nan])
        with pytest.raises(ParameterError, match="w_bar must provide 2 entries, got 1"):
            simulate_abstraction(PARAMS, (0, 0), 1.0, w_bar=[0.0])

    def test_one_bound_equals_a_bound_per_step(self):
        seq = (0, 1, 1, 0) * 25
        one = simulate_abstraction(PARAMS, seq, 1.0, w_bar=0.1)
        assert one.tobytes() == simulate_abstraction(PARAMS, seq, 1.0, [0.1] * 100).tobytes()
        with pytest.raises(ParameterError, match="w_bar must be finite and >= 0, got -0.1"):
            simulate_abstraction(PARAMS, seq, 1.0, w_bar=-0.1)

    @pytest.mark.parametrize("x0_norm", [math.nan, math.inf, -1.0])
    def test_bad_initial_norm_rejected(self, x0_norm):
        with pytest.raises(ParameterError, match="x0_norm"):
            simulate_abstraction(PARAMS, (0, 0), x0_norm)

    def test_overflow_truncates(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 1e10})
        series = simulate_abstraction(params, (0,) * 40, 1.0)
        assert len(series) < 41
        assert series[-1] <= 1e300

    @pytest.mark.parametrize("steps", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS,
                                       3 * CSV_BLOCK_ROWS + 5])
    @pytest.mark.parametrize("rates", [{0: 0.9, 1: 1.1}, {0: 0.999, 1: 1.25}])
    def test_blocks_equal_the_loop(self, steps, rates):
        # series shorter than, equal to and longer than one block; the second
        # rate map overflows vbar in the third block
        params = AbstractionParams(alpha=1.5, beta=2.0, rho=rates)
        rng = np.random.default_rng(steps)
        seq = tuple(int(s) for s in rng.integers(0, 2, steps))
        w_bar = rng.random(steps)
        for gains in (w_bar, 0.25):
            expected = references.abstraction_series(params, seq, 0.5,
                                                      np.broadcast_to(gains, steps))
            series = simulate_abstraction(params, seq, 0.5, w_bar=gains)
            assert series.tobytes() == expected.tobytes()

    def test_peak_memory_does_not_grow_with_the_horizon(self):
        # the result holds 8 bytes a step; whole-horizon Python float lists
        # (the gains, vbar, kappa) would hold 24 bytes a step or more each
        import tracemalloc

        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 1.2})
        peaks = []
        for steps in (20_000, 80_000):
            seq, w_bar = (0, 1) * (steps // 2), np.full(steps, 0.1)
            tracemalloc.start()
            try:
                series = simulate_abstraction(params, seq, 1.0, w_bar=w_bar)
                assert kappa(params, seq, 0, steps) == 0.6 ** (steps // 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(series) == steps + 1
        assert peaks[1] - peaks[0] < 16 * (80_000 - 20_000)


class TestCheckGuarantee:
    def test_nominal_holds_with_unit_ratio(self):
        trace = co_simulate(SCALAR, PARAMS, (0, 0, 0, 0), [1.0])
        report = check_guarantee(trace)
        assert report.holds
        assert report.max_ratio == pytest.approx(1.0)

    def test_adversarial_truncation_detected(self):
        trace = co_simulate(SCALAR, PARAMS, (0, 0, 0), [1.0])
        lowered = Trace(
            sigma=trace.sigma,
            w_norm=trace.w_norm,
            x=trace.x,
            x_norm=trace.x_norm,
            vbar=np.where(np.arange(len(trace)) >= 2, trace.vbar * 0.5, trace.vbar),
            kappa=trace.kappa,
        )
        report = check_guarantee(lowered)
        assert not report.holds
        assert report.first_violation == 2

    @pytest.mark.parametrize("column", ["x_norm", "vbar"])
    @pytest.mark.parametrize("first", [0, 1])
    def test_nan_cell_is_a_violation(self, column, first):
        trace = co_simulate(SCALAR, PARAMS, (0, 0), [1.0])
        series = {"x_norm": trace.x_norm.copy(), "vbar": trace.vbar.copy()}
        series[column][first] = math.nan
        report = check_guarantee(Trace(sigma=trace.sigma, w_norm=trace.w_norm, x=trace.x,
                                       kappa=trace.kappa, **series))
        assert not report.holds
        assert report.first_violation == first
        assert report.max_ratio == math.inf

    def test_ratio_overflow_is_inf_without_a_warning(self):
        # 1 / 1e-310 overflows; the ratio is inf, and no RuntimeWarning escapes
        trace = co_simulate(SCALAR, PARAMS, (0, 0), [1.0])
        report = check_guarantee(Trace(sigma=trace.sigma, w_norm=trace.w_norm, x=trace.x,
                                       x_norm=trace.x_norm, vbar=np.full(3, 1e-310),
                                       kappa=trace.kappa))
        assert (report.first_violation, report.max_ratio) == (0, math.inf)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1e-9])
    def test_bad_tolerance_rejected(self, rel_tol):
        trace = co_simulate(SCALAR, PARAMS, (0, 0), [1.0])
        with pytest.raises(ParameterError, match="rel_tol"):
            check_guarantee(trace, rel_tol=rel_tol)

    @pytest.mark.parametrize("seed", range(30))
    def test_randomized_builder_traces_hold(self, seed):
        rng = np.random.default_rng(1800 + seed)
        system = two_mode_system(rng, disturbance_bound=0.3)
        params = lyapunov_abstraction(system)
        seq = random_mk_sequence(MkConstraint(1, 2), 50, rng)
        w = rng.standard_normal((50, system.n))
        w *= (0.3 * rng.random(50) / np.linalg.norm(w, axis=1))[:, None]
        trace = co_simulate(system, params, seq, rng.standard_normal(system.n), w)
        assert check_guarantee(trace).holds

    @pytest.mark.parametrize("seed", range(10))
    def test_upper_rounding_preserves_guarantee(self, seed):
        rng = np.random.default_rng(1900 + seed)
        system = two_mode_system(rng)
        rho = valid_rho_for(system.modes[0], rng)
        from convrate import build_robustness_abstraction

        params = build_robustness_abstraction(system, rho)
        inflated = AbstractionParams(
            alpha=params.alpha * 1.5,
            beta=params.beta * 2.0,
            rho={mode: rate * 1.25 for mode, rate in params.rho.items()},
        )
        seq = random_mk_sequence(MkConstraint(1, 3), 40, rng)
        trace = co_simulate(system, inflated, seq, rng.standard_normal(system.n))
        assert check_guarantee(trace).holds


class TestKappa:
    def test_empty_interval(self):
        assert kappa(PARAMS, (0, 1, 0), 2, 2) == 1.0

    def test_product(self):
        assert kappa(PARAMS, (0, 1, 0), 0, 3) == pytest.approx(0.3, abs=1e-15)

    def test_multiplicative_split(self):
        seq = (0, 1, 0)
        assert kappa(PARAMS, seq, 0, 3) == pytest.approx(
            kappa(PARAMS, seq, 0, 1) * kappa(PARAMS, seq, 1, 3))

    def test_index_order(self):
        with pytest.raises(ParameterError):
            kappa(PARAMS, (0, 1), 2, 1)

    def test_consistency_with_vbar(self):
        rng = np.random.default_rng(5)
        seq = tuple(int(s) for s in rng.integers(0, 2, 20))
        series = simulate_abstraction(PARAMS, seq, 1.0)
        for b in range(0, 21, 5):
            assert series[b] == pytest.approx(kappa(PARAMS, seq, 0, b) * series[0], rel=1e-12)

    @pytest.mark.parametrize("a, b", [(0, 3 * CSV_BLOCK_ROWS + 7), (5, 2 * CSV_BLOCK_ROWS + 5),
                                      (CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1)])
    def test_blocks_equal_cumprod(self, a, b):
        rng = np.random.default_rng(b)
        rates = {0: 0.97, 1: 1.03}
        params = AbstractionParams(alpha=1.0, beta=1.0, rho=rates)
        seq = tuple(int(s) for s in rng.integers(0, 2, 3 * CSV_BLOCK_ROWS + 7))
        products = np.cumprod([1.0] + [rates[mode] for mode in seq[a:b]])
        assert kappa(params, seq, a, b) == products[-1]
        assert kappa(params, seq, a, b - 1) == products[-2]

    @pytest.mark.parametrize("rates", [{0: 0.5, 1: 1.2}, {0: 0.3, 1: 1e30}])
    def test_trace_column_equals_the_loop(self, rates):
        # the second rate map overflows vbar, so the trace is truncated
        params = AbstractionParams(alpha=1.0, beta=1.0, rho=rates)
        system = SystemModel(modes={0: [[0.3]], 1: [[0.9]]})
        seq = tuple(int(s) for s in np.random.default_rng(6).integers(0, 2, 400))
        trace = co_simulate(system, params, seq, [1.0])
        products = np.cumprod([1.0] + [rates[mode] for mode in seq[:len(trace) - 1]])
        assert trace.kappa.tolist() == [kappa(params, seq, 0, k) for k in range(len(trace))]
        assert trace.kappa.tobytes() == products.tobytes()


class TestCost:
    def test_weighted_bound(self):
        values = cost_bound(np.diag([1.0, 4.0]), [2.0])
        assert values[0] == pytest.approx(16.0, abs=1e-12)

    def test_identity_weight(self):
        assert cost_bound(np.eye(3), [3.0])[0] == pytest.approx(9.0)

    def test_bound_past_the_float_range_is_inf_without_a_warning(self):
        # the suite turns RuntimeWarnings into errors, so a leaked overflow fails here
        assert cost_bound([[2.0]], [1e200]).tolist() == [math.inf]

    def test_zero_weight_bounds_an_infinite_state_by_zero(self):
        # 0 * inf is NaN with a RuntimeWarning, which the suite turns into an error
        assert cost_bound([[0.0]], [math.inf, 2.0]).tolist() == [0.0, 0.0]

    def test_bound_dominates_measured_cost(self):
        rng = np.random.default_rng(11)
        Q = random_spd(rng, 2)
        system = SystemModel(modes={0: [[0.6, 0.2], [0.0, 0.5]], 1: [[1.1, 0.0], [0.3, 0.9]]},
                             cost_weight=Q)
        params = lyapunov_abstraction(system)
        seq = random_mk_sequence(MkConstraint(1, 2), 40, rng)
        trace = co_simulate(system, params, seq, [1.0, -0.5])
        measured = np.einsum("ki,ij,kj->k", trace.x, Q, trace.x)
        assert np.all(measured <= trace.cost_bound * (1 + 1e-9))

    def test_transform_diagonal(self):
        assert np.allclose(cost_transform(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_transform_identity(self):
        assert np.allclose(cost_transform(np.eye(2)), np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_transform_identity_check(self, seed):
        rng = np.random.default_rng(2000 + seed)
        Q = random_spd(rng, 3)
        R = cost_transform(Q)
        for _ in range(5):
            x = rng.standard_normal(3)
            quad = float(x @ Q @ x)
            assert np.linalg.norm(R @ x) ** 2 == pytest.approx(quad, rel=1e-10)

    def test_singular_weight_redirects(self):
        with pytest.raises(ParameterError, match="cost_bound"):
            cost_transform(np.diag([1.0, 0.0]))


class TestTraceCsv:
    def test_column_contract(self):
        trace = co_simulate(SCALAR, PARAMS, (0, 1), [1.0])
        lines = trace_csv_lines(trace)
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 4
        # final row carries no applied mode or disturbance
        last = lines[-1].split(",")
        assert last[1] == "" and last[2] == ""
        # no cost weight declared: cost column stays empty
        assert all(line.split(",")[6] == "" for line in lines[1:])

    def test_cost_column_present_with_weight(self):
        system = SystemModel(modes={0: [[0.5]]}, cost_weight=[[4.0]])
        trace = co_simulate(system, AbstractionParams(1, 1, {0: 0.5}), (0,), [1.0])
        lines = trace_csv_lines(trace)
        assert lines[1].split(",")[6] == repr(4.0)

    def test_byte_stable(self):
        first = trace_csv_lines(co_simulate(SCALAR, PARAMS, (0, 1, 0), [1.0]))
        second = trace_csv_lines(co_simulate(SCALAR, PARAMS, (0, 1, 0), [1.0]))
        assert first == second

    def test_write_adds_trailing_newline(self, tmp_path):
        target = tmp_path / "trace.csv"
        with open(target, "w") as handle:
            TraceStream(SCALAR, PARAMS, (0,), [1.0]).write_csv(handle)
        text = target.read_text()
        assert text.endswith("\n")
        assert text.splitlines()[0] == ",".join(TRACE_COLUMNS)

    def test_diverged_trace_is_consistent(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 1e8})
        system = SystemModel(modes={0: [[1.0]]})
        trace = co_simulate(system, params, (0,) * 60, [1.0])
        assert trace.diverged
        assert len(trace) < 61
        assert len(trace_csv_lines(trace)) == len(trace) + 1


@st.composite
def plant_cases(draw):
    """A system of size 1..8 with up to three modes (maybe one zero), a sequence and disturbances."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-3, 1))  # 60 steps stay far from overflow
    matrices = {m: rng.standard_normal((n, n)) * scale for m in range(modes)}
    if draw(st.booleans()):  # a zero mode: a zero disturbance row must keep its +0.0 states
        matrices[modes - 1] = np.zeros((n, n))
    system = SystemModel(modes=matrices)
    horizon = draw(st.integers(0, 60))
    seq = [int(m) for m in rng.integers(0, modes, horizon)]
    seq = draw(st.sampled_from([tuple, list, np.array]))(seq)
    w = rng.standard_normal((horizon, n)) if draw(st.booleans()) else None
    if w is not None and draw(st.booleans()):
        w = np.asfortranarray(w)
    return system, seq, rng.standard_normal(n), w


class TestAgainstStepReferences:
    """The plant, abstraction and kappa loops equal their per-step versions bit for bit."""

    @given(plant_cases())
    @settings(max_examples=150, deadline=None)
    def test_plant(self, case):
        system, seq, x0, w = case
        w_rows = np.zeros((len(seq), system.n)) if w is None else w
        expected = references.plant_states(system, seq, x0, w_rows)
        assert simulate_plant(system, seq, x0, w).tobytes() == expected.tobytes()

    @given(plant_cases(), st.floats(0.0, 3.0), st.booleans(),
           st.sampled_from([1.0, 1e-160, 1e160]))
    @settings(max_examples=150, deadline=None)
    def test_co_simulate(self, case, skip_rate, diverge, x0_scale):
        # x0_scale != 1: the squared sums of x_0 (and maybe later rows) leave the float range
        system, seq, x0, w = case
        x0 = x0 * x0_scale
        rho = {m: (0.5, skip_rate, 1e30 if diverge else 0.9)[m] for m in system.modes}
        params = AbstractionParams(alpha=1.5, beta=2.0, rho=rho)
        trace = co_simulate(system, params, seq, x0, w)
        w_rows = np.zeros((len(seq), system.n)) if w is None else w
        states = references.plant_states(system, seq, x0, w_rows)
        w_norms = np.linalg.norm(w_rows, axis=1)
        x0_norm = (float(np.linalg.norm(x0)) if x0_scale == 1.0
                   else float(references.row_norms([x0])[0]))
        vbar = references.abstraction_series(params, seq, x0_norm, w_norms)
        steps = len(vbar)
        assert trace.vbar.tobytes() == vbar.tobytes()
        assert trace.x.tobytes() == states[:steps].tobytes()
        assert trace.x_norm.tobytes() == references.row_norms(states[:steps]).tobytes()
        assert trace.w_norm[:len(seq)].tobytes() == w_norms[:steps].tobytes()
        kappa_loop = [kappa(params, seq, 0, k) for k in range(steps)]
        assert trace.kappa.tobytes() == np.array(kappa_loop).tobytes()

    def test_abstraction_diverges_before_an_unrated_mode(self):
        # the series stops at the overflow guard and never looks up mode 5
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 1e200})
        seq = (0, 0, 0, 5)
        series = simulate_abstraction(params, seq, 1.0)
        assert series.tobytes() == references.abstraction_series(params, seq, 1.0,
                                                                 [0.0] * 4).tobytes()
        with pytest.raises(KeyError, match="mode 5"):
            simulate_abstraction(AbstractionParams(1.0, 1.0, {0: 0.5}), seq, 1.0)


special_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                           st.sampled_from([0.0, -0.0, 1e-320, 0.1, 1e300, math.nan]))


@st.composite
def csv_traces(draw):
    """Hand-built traces with arbitrary floats, integer series and missing cells."""
    rows = draw(st.integers(1, 12))
    column = st.lists(special_floats, min_size=rows, max_size=rows)
    nonnegative = st.lists(st.one_of(st.floats(0.0, allow_infinity=True), st.just(math.nan)),
                           min_size=rows, max_size=rows)
    sigma = draw(st.lists(st.one_of(st.none(), st.integers(0, 1000)),
                          min_size=rows, max_size=rows))
    cost = draw(st.one_of(st.none(), column))
    vbar = np.array(draw(nonnegative))
    if draw(st.booleans()):
        vbar = np.arange(rows)  # integer series still render as floats
    return Trace(sigma=tuple(sigma), w_norm=np.array(draw(column)),
                 x=np.zeros((rows, 1)), x_norm=np.array(draw(column)), vbar=vbar,
                 kappa=np.array(draw(nonnegative)),
                 cost_bound=None if cost is None else np.array(cost))


class TestCsvAgainstCellReference:
    @given(st.one_of(
        st.lists(special_floats, max_size=40),
        st.lists(st.integers(-2**63, 2**63 - 1), max_size=40).map(
            lambda bits: np.array(bits, dtype=np.int64).view(np.float64)),  # any NaN payload
    ))
    @settings(max_examples=300, deadline=None)
    def test_float_cells_are_repr(self, values):
        values = np.asarray(values, dtype=float)
        expected = ["" if math.isnan(value) else repr(value) for value in values.tolist()]
        assert _float_cells(values) == expected
        assert _float_cells(np.repeat(values, 3)) == [cell for cell in expected for _ in range(3)]

    @given(csv_traces())
    @settings(max_examples=200, deadline=None)
    def test_cells(self, trace):
        assert trace_csv_lines(trace) == references.trace_csv_lines(trace)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                      2 * CSV_BLOCK_ROWS + 1])
    def test_streamed_equals_joined_lines(self, rows, weighted):
        system = SystemModel(modes={0: [[0.5]], 1: [[1.1]]},
                             cost_weight=[[2.0]] if weighted else None)
        rng = np.random.default_rng(rows)
        seq = tuple(int(m) for m in rng.integers(0, 2, rows - 1))
        w = rng.standard_normal(rows - 1)
        trace = co_simulate(system, PARAMS, seq, [1.0], w)
        assert len(trace) == rows and (trace.cost_bound is not None) == weighted
        lines = trace_csv_lines(trace)
        assert lines == references.trace_csv_lines(trace)
        assert _stream_lines(TraceStream(system, PARAMS, seq, [1.0], w))[0] == lines

    def test_streamed_diverged_trace(self):
        # 1.15^k passes the overflow guard near k = 4943, past the first row block
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 1.15})
        system = SystemModel(modes={0: [[1.0]]})
        trace = co_simulate(system, params, (0,) * 6000, [1.0])
        assert trace.diverged and CSV_BLOCK_ROWS < len(trace) < 6000
        lines = trace_csv_lines(trace)
        assert lines == references.trace_csv_lines(trace)
        assert _stream_lines(TraceStream(system, params, (0,) * 6000, [1.0]))[0] == lines


def _stream_lines(stream: TraceStream) -> tuple[list[str], int, GuaranteeReport]:
    """The lines that ``stream.write_csv`` writes, each checked to end in a newline, and
    the row count and guarantee report that it returns."""
    text = io.StringIO()
    rows, report = stream.write_csv(text)
    lines = text.getvalue().split("\n")
    assert lines.pop() == ""
    return lines, rows, report


class TestTraceStream:
    """The streamed run equals ``co_simulate`` + ``trace_csv_lines`` + ``check_guarantee``."""

    def _check(self, system, params, seq, x0, w, rel_tol=1e-9):
        w_bar = np.linalg.norm(w, axis=1)
        stream = TraceStream(system, params, seq, x0, w, w_bar, len(w), rel_tol)
        trace = co_simulate(system, params, seq, x0, w, w_bar, len(w))
        lines, rows, report = _stream_lines(stream)
        assert lines == references.trace_csv_lines(trace)
        assert (rows, rows <= len(w)) == (len(trace), trace.diverged)
        assert report == check_guarantee(trace, rel_tol)
        return rows, report

    @given(plant_cases(), st.floats(0.0, 3.0), st.booleans(), st.sampled_from([0.0, 1e-9, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_small_runs(self, case, skip_rate, diverge, rel_tol):
        system, seq, x0, w = case
        rho = {m: (0.5, skip_rate, 1e30 if diverge else 0.9)[m] for m in system.modes}
        params = AbstractionParams(alpha=1.5, beta=2.0, rho=rho)
        w = np.zeros((len(seq), system.n)) if w is None else np.ascontiguousarray(w)
        self._check(system, params, seq, x0, w, rel_tol)

    @pytest.mark.parametrize("rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                      2 * CSV_BLOCK_ROWS + 1])
    def test_violation_in_a_later_block(self, rows):
        # the plant returns to |x_0| every two steps, while vbar loses a factor
        # (1 - 1e-4) a step from 2 |x_0|: the ratio passes 1 near k = 6,931
        system = SystemModel(modes={0: [[0.5]], 1: [[2.0]]}, cost_weight=[[2.0]])
        params = AbstractionParams(alpha=2.0, beta=1.0,
                                   rho={0: 0.5 * (1 - 1e-4), 1: 2.0 * (1 - 1e-4)})
        seq = (0, 1) * rows
        _, report = self._check(system, params, seq, [1.0], np.zeros((rows, 1)))
        if rows > 2 * CSV_BLOCK_ROWS:
            assert CSV_BLOCK_ROWS < report.first_violation < rows
            assert 1.0 < report.max_ratio < 2.0
        else:
            assert report.holds

    def test_divergence_past_the_first_block(self):
        # 1.15^k passes the overflow guard near k = 4943, past the first row block
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 1.15})
        rng = np.random.default_rng(4)
        rows, _ = self._check(SystemModel(modes={0: [[1.0]]}), params, (0,) * 6000, [1.0],
                              rng.standard_normal((6000, 1)))
        assert CSV_BLOCK_ROWS < rows < 6000  # diverged: a completed trace has 6001 rows

    def test_short_source_is_refused(self):
        # an empty source is refused on construction; one that runs out at the
        # second block is refused when that block is sliced
        system = SystemModel(modes={0: [[0.5]]})
        steps = CSV_BLOCK_ROWS + 1
        with pytest.raises(DimensionError, match="at least"):
            TraceStream(system, PARAMS, (0,) * steps, [1.0], np.zeros((0, 1)), None, steps)
        stream = TraceStream(system, PARAMS, (0,) * steps, [1.0],
                             np.zeros((CSV_BLOCK_ROWS, 1)), None, steps)
        with pytest.raises(DimensionError, match="at least 1 vectors"):
            _stream_lines(stream)

    @pytest.mark.parametrize("steps", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("source", ["none", "array", "broadcast row"])
    def test_each_kind_of_source_gives_the_collected_lines(self, source, steps):
        system = SystemModel(modes={0: [[0.5, 0.1], [0.0, 0.4]], 1: [[1.1, 0.0], [0.2, 0.9]]},
                             cost_weight=[[2.0, 0.0], [0.0, 1.0]])
        params = lyapunov_abstraction(system)
        seq = references.worst_case_sequence(MkConstraint(1, 2), steps)
        w = {"none": None,
             "array": 0.1 * np.random.default_rng(5).standard_normal((steps, 2)),
             "broadcast row": np.broadcast_to([0.05, -0.02], (steps, 2))}[source]
        stream = TraceStream(system, params, seq, [1.0, 0.0], w, None, steps)
        trace = co_simulate(system, params, seq, [1.0, 0.0], w, None, steps)
        lines, _, report = _stream_lines(stream)
        assert lines == references.trace_csv_lines(trace)
        assert report == check_guarantee(trace)

    def test_default_w_bar_is_the_exact_disturbance_norm(self):
        # None takes |w_k|, as in co_simulate; a zero bound would break the guarantee
        system = SystemModel(modes={0: [[0.5, 0.1], [0.0, 0.4]], 1: [[1.1, 0.0], [0.2, 0.9]]})
        params = lyapunov_abstraction(system)
        rng = np.random.default_rng(9)
        steps = CSV_BLOCK_ROWS + 3
        seq = references.worst_case_sequence(MkConstraint(1, 2), steps)
        w = 0.1 * rng.standard_normal((steps, 2))
        stream = TraceStream(system, params, seq, [1.0, 0.0], w, None, steps)
        trace = co_simulate(system, params, seq, [1.0, 0.0], w)
        lines, _, report = _stream_lines(stream)
        assert lines == references.trace_csv_lines(trace)
        vbar = references.abstraction_series(params, seq, 1.0, np.linalg.norm(w, axis=1))
        assert trace.vbar.tobytes() == vbar.tobytes()
        assert report == check_guarantee(trace) and report.holds

    def test_divergence_on_a_block_edge_writes_no_empty_line(self):
        # vbar = rate^k passes the overflow guard first at k = CSV_BLOCK_ROWS, so the
        # first block is full and the second holds no row
        rate = math.exp(math.log(1e300) / (CSV_BLOCK_ROWS - 0.5))
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: rate})
        steps = 2 * CSV_BLOCK_ROWS
        seq, w = (0,) * steps, np.zeros((steps, 1))
        stream = TraceStream(SystemModel(modes={0: [[1.0]]}), params, seq, [1.0], w, None, steps)
        text = io.StringIO()
        rows, _ = stream.write_csv(text)
        lines = text.getvalue().split("\n")
        assert rows == CSV_BLOCK_ROWS  # diverged: fewer rows than steps + 1
        assert lines == references.trace_csv_lines(co_simulate(
            SystemModel(modes={0: [[1.0]]}), params, seq, [1.0], w)) + [""]
        assert len(lines) == rows + 2 and "" not in lines[:-1]

    def test_disturbances_are_checked_before_w_bar(self):
        # `simulate --w const:nan` gives NaN disturbances and a NaN bound
        system, nan = SystemModel(modes={0: [[0.5]]}), np.full((3, 1), math.nan)
        with pytest.raises(DimensionError, match="disturbances contain non-finite entries"):
            TraceStream(system, PARAMS, (0,) * 3, [1.0], nan, math.nan, 3)
        with pytest.raises(ParameterError, match="w_bar must be finite and >= 0, got nan"):
            TraceStream(system, PARAMS, (0,) * 3, [1.0], np.zeros((3, 1)), math.nan, 3)

    def test_mode_without_a_rate_is_refused_before_any_row(self):
        # mode 1 is first applied in the second block
        system = SystemModel(modes={0: [[0.5]], 1: [[0.9]]})
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5})
        seq = (0,) * (CSV_BLOCK_ROWS + 5) + (1,)
        w = np.zeros((len(seq), 1))
        with pytest.raises(KeyError, match="mode 1 has no convergence rate"):
            TraceStream(system, params, seq, [1.0], w, None)
