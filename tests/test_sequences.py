import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import references
from convrate import (
    MkConstraint,
    ParameterError,
    ResourceCapError,
    SystemModel,
    averaged_spectral_radius,
    count_mk_sequences,
    enumerate_mk_sequences,
    random_mk_sequence,
    skip_count_bound,
    transition_product,
    validate_mk,
    worst_case_sequence,
)
from convrate import counterexample, sequences
from convrate.mk import _REFUSAL_COUNT_LENGTH, check_enumeration_caps

DEMO = counterexample.system()
#: The scalar system whose skip and execute rates cancel exactly in pairs.
HALVE_DOUBLE = SystemModel(modes={0: [[0.5]], 1: [[2.0]]})


def benchmark_jsr8(seed):
    """The modes of the benchmark's ``jsr8`` document for ``seed``: two 8x8 normal
    matrices from ``default_rng([seed, 0])``, each scaled to unit spectral norm."""
    rng = np.random.default_rng([seed, 0])
    modes = [rng.standard_normal((8, 8)) for _ in range(2)]
    return tuple(a / np.linalg.norm(a, 2) for a in modes)


#: The benchmark's seed-5 search system: its best tiling of a short word is far below
#: ``rho_hat``, so the walk's own leaves do most of the pruning.
JSR8_SEED5 = benchmark_jsr8(5)


def naive_admissible(mk, length):
    out = []
    for mask in range(2**length):
        seq = tuple((mask >> i) & 1 for i in range(length))
        if all(sum(seq[s:s + mk.K]) <= mk.m_bar for s in range(length - mk.K + 1)):
            out.append(seq)
    return out


def naive_count(mk, length):
    """Filter all 2^length binary sequences by their K-window sums."""
    bits = (np.arange(2**length)[:, None] >> np.arange(length)) & 1
    ends = np.cumsum(np.pad(bits, ((0, 0), (1, 0))), axis=1)
    windows = ends[:, mk.K:] - ends[:, :-mk.K]
    return int(np.count_nonzero((windows <= mk.m_bar).all(axis=1)))


def skip_age_count(mk, length):
    """Count by the ages of the skips among the last K-1 symbols (L >= K)."""
    counts = {(): 1}
    for _ in range(length):
        following = {}
        for ages, count in counts.items():
            older = tuple(age + 1 for age in ages if age + 1 < mk.K - 1)
            for sym in (0, 1):
                if len(ages) + sym <= mk.m_bar:
                    key = (0,) + older if sym else older
                    following[key] = following.get(key, 0) + count
        counts = following
    return sum(counts.values())


def reference_search(system, mk, length):
    """Every admissible sequence with its product radius, descending order."""
    out = []
    for seq in itertools.product((1, 0), repeat=length):
        if validate_mk(seq, mk):
            product = transition_product(system, seq)
            out.append((float(np.max(np.abs(np.linalg.eigvals(product)))), seq))
    return out


def chunked_search(system, mk, length, chunk):
    """The search with a byte budget of ``chunk`` products, or the default one for None.

    A small budget shrinks the blocks of both walks and the exact part of the
    bound tables alike.
    """
    with pytest.MonkeyPatch.context() as patch:  # hypothesis rejects the fixture
        if chunk is not None:
            patch.setattr(sequences, "EIG_CHUNK_BYTES", chunk * 8 * system.n**2)
        return averaged_spectral_radius(system, mk, length)


def restricted_walk(system, mk, length, period):
    """The radius of the search's first walk, over the tilings of the words of period at
    most ``period``: the incumbent it starts the second walk from."""
    found = []
    walk = sequences._walk

    def recording(*args):
        found.append(walk(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as patch:  # hypothesis rejects the fixture
        patch.setattr(sequences, "INCUMBENT_PERIOD", period)
        patch.setattr(sequences, "_walk", recording)
        averaged_spectral_radius(system, mk, length, max_length=length)
    return found[0][0]


def best_tiling(system, mk, length, period):
    """The largest radius among the admissible sequences that tile a word of period at
    most ``period``, each product formed by :func:`transition_product`."""
    tilings = {tuple(word[i % len(word)] for i in range(length))
               for p in range(1, period + 1) for word in itertools.product((0, 1), repeat=p)}
    return max(float(np.max(np.abs(np.linalg.eigvals(transition_product(system, seq)))))
               for seq in tilings if validate_mk(seq, mk))


@st.composite
def search_cases(draw, modes):
    K = draw(st.integers(1, 5))
    mk = MkConstraint(draw(st.integers(0, K)), K)
    return draw(modes), mk, draw(st.integers(1, 10))


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 3))
    flat = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=n * n, max_size=n * n)
    return tuple(np.reshape(draw(flat), (n, n)) for _ in range(2))


@st.composite
def wide_search_cases(draw, modes):
    K = draw(st.integers(1, 12))
    mk = MkConstraint(draw(st.integers(0, K)), K)
    return draw(modes), mk, draw(st.integers(1, 12))


@st.composite
def nilpotent_pairs(draw):
    """Strictly upper triangular modes (zero at n = 1) under one drawn shear.

    With a zero shear every product is exactly nilpotent, so the incumbent
    is 0. Otherwise the modes are nilpotent only up to rounding, and long
    products are mostly matmul rounding noise.
    """
    n = draw(st.integers(1, 3))
    flat = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=n * n, max_size=n * n)
    shear = np.eye(n) + np.tril(np.reshape(draw(flat), (n, n)), -1)
    return tuple(shear @ np.triu(np.reshape(draw(flat), (n, n)), 1) @ np.linalg.inv(shear)
                 for _ in range(2))


power_of_two_scalars = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda exps: (np.array([[2.0**exps[0]]]), np.array([[2.0**exps[1]]])))


class TestValidate:
    def test_alternating_ok(self):
        assert validate_mk((1, 0, 1, 0, 1, 0), MkConstraint(1, 2))

    def test_violation_reports_window(self):
        check = validate_mk((1, 1, 0, 0), MkConstraint(1, 2))
        assert not check
        assert check.violation_start == 0
        assert check.window_sum == 2

    def test_two_of_four(self):
        assert validate_mk((1, 1, 0, 0, 1, 1, 0, 0), MkConstraint(2, 4))

    def test_short_sequences_have_no_windows(self):
        assert validate_mk((1, 1, 1), MkConstraint(2, 4))

    def test_non_binary_rejected(self):
        with pytest.raises(TypeError):
            validate_mk((0, 2, 0), MkConstraint(1, 2))
        with pytest.raises(TypeError):
            validate_mk((0, 0.5), MkConstraint(1, 2))


class TestWorstCase:
    def test_two_of_four(self):
        assert worst_case_sequence(MkConstraint(2, 4), 8) == (1, 1, 0, 0, 1, 1, 0, 0)

    def test_hard_real_time_is_all_zero(self):
        assert worst_case_sequence(MkConstraint(3, 3), 5) == (0,) * 5

    def test_one_of_two(self):
        assert worst_case_sequence(MkConstraint(1, 2), 5) == (1, 0, 1, 0, 1)

    @pytest.mark.parametrize("K", range(1, 7))
    def test_always_admissible(self, K):
        for m_bar in range(K + 1):
            mk = MkConstraint(K - m_bar, K)
            assert validate_mk(worst_case_sequence(mk, 30), mk)

    @given(st.integers(1, 8), st.data())
    def test_tiled_window_equals_slot_rule(self, K, data):
        mk = MkConstraint(data.draw(st.integers(0, K)), K)
        length = data.draw(st.integers(0, 40))
        assert worst_case_sequence(mk, length) == references.worst_case_sequence(mk, length)


class TestEnumerate:
    def test_one_of_two_length_four(self):
        seqs = list(enumerate_mk_sequences(MkConstraint(1, 2), 4))
        assert len(seqs) == 8
        assert sorted(seqs) == sorted(naive_admissible(MkConstraint(1, 2), 4))

    def test_unconstrained(self):
        assert len(list(enumerate_mk_sequences(MkConstraint(0, 3), 6))) == 64

    def test_hard_real_time(self):
        assert list(enumerate_mk_sequences(MkConstraint(2, 2), 5)) == [(0,) * 5]

    @pytest.mark.parametrize("mk", [MkConstraint(1, 2), MkConstraint(2, 4),
                                    MkConstraint(1, 3), MkConstraint(3, 5)])
    def test_matches_naive_filter(self, mk):
        length = 11
        seqs = list(enumerate_mk_sequences(mk, length))
        assert len(set(seqs)) == len(seqs)
        assert sorted(seqs) == sorted(naive_admissible(mk, length))
        assert all(validate_mk(seq, mk) for seq in seqs)
        assert seqs == sorted(seqs)
        assert count_mk_sequences(mk, length) == len(seqs)

    def test_length_cap(self):
        count = count_mk_sequences(MkConstraint(1, 2), 30)
        with pytest.raises(ResourceCapError, match=f"; this would visit {count} sequences "):
            list(enumerate_mk_sequences(MkConstraint(1, 2), 30))

    def test_window_cap(self):
        with pytest.raises(ResourceCapError, match="window"):
            list(enumerate_mk_sequences(MkConstraint(1, 13), 4))

    def test_refusal_names_the_exact_count(self):
        with pytest.raises(ResourceCapError) as info:
            check_enumeration_caps(MkConstraint(6, 12), 200, 24)
        count = 485572847851254639676419031054289827353272136186976325
        assert str(info.value) == (
            f"length 200 exceeds the enumeration cap 24; this would visit {count} "
            "sequences (reduce the length, or raise the cap to proceed)")

    def test_overlong_refusal_skips_the_count(self):
        # an exact count this long takes seconds and has more digits than str() allows
        with pytest.raises(ResourceCapError) as info:
            check_enumeration_caps(MkConstraint(6, 12), 20000, 24)
        assert str(info.value) == ("length 20000 exceeds the enumeration cap 24 "
                                   "(reduce the length, or raise the cap to proceed)")

    def test_refusal_counts_up_to_its_length_limit(self):
        mk, limit = MkConstraint(1, 2), _REFUSAL_COUNT_LENGTH
        with pytest.raises(ResourceCapError) as info:
            check_enumeration_caps(mk, limit, 24)
        assert f"; this would visit {count_mk_sequences(mk, limit)} sequences " in str(info.value)
        with pytest.raises(ResourceCapError) as info:
            check_enumeration_caps(mk, limit + 1, 24)
        assert "would visit" not in str(info.value)

    def test_no_sequence_enters_a_dead_branch(self):
        # at most one skip per 4-window: "1,1" starts sequences of 3 but none of 4 or more
        mk = MkConstraint(3, 4)
        assert {seq[:2] for seq in enumerate_mk_sequences(mk, 3)} == {
            (0, 0), (0, 1), (1, 0), (1, 1)}
        assert {seq[:2] for seq in enumerate_mk_sequences(mk, 6)} == {(0, 0), (0, 1), (1, 0)}


class TestCount:
    @pytest.mark.parametrize("K", range(1, 8))
    def test_matches_naive_count(self, K):
        for m in range(K + 1):
            mk = MkConstraint(m, K)
            for length in range(15):
                assert count_mk_sequences(mk, length) == naive_count(mk, length), (mk, length)

    def test_refusal_count_is_exact(self):
        assert count_mk_sequences(MkConstraint(6, 12), 200) == (
            485572847851254639676419031054289827353272136186976325)

    def test_short_sequences_are_unconstrained(self):
        assert count_mk_sequences(MkConstraint(1, 40), 30) == 2**30

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError):
            count_mk_sequences(MkConstraint(1, 2), -1)

    def test_wide_window_with_many_skips_refused(self):
        # 2^39 reachable states: refused before anything is built
        with pytest.raises(ResourceCapError, match="automaton states"):
            count_mk_sequences(MkConstraint(1, 40), 40)

    @pytest.mark.parametrize("m, K, length", [(39, 40, 60), (38, 40, 50), (5, 8, 30)])
    def test_wide_window_with_few_skips_counts(self, m, K, length):
        mk = MkConstraint(m, K)
        assert count_mk_sequences(mk, length) == skip_age_count(mk, length)


class TestRandomSequences:
    @pytest.mark.parametrize("seed", range(10))
    def test_always_admissible(self, seed, monkeypatch):
        monkeypatch.setattr(sequences, "SKIP_PROB", 0.9)
        rng = np.random.default_rng(seed)
        for mk in (MkConstraint(1, 2), MkConstraint(2, 4), MkConstraint(1, 5)):
            seq = random_mk_sequence(mk, 40, rng)
            assert validate_mk(seq, mk)

    def test_contains_skips_when_allowed(self, monkeypatch):
        monkeypatch.setattr(sequences, "SKIP_PROB", 1.0)
        rng = np.random.default_rng(7)
        seq = random_mk_sequence(MkConstraint(1, 2), 50, rng)
        assert sum(seq) == skip_count_bound(MkConstraint(1, 2), 50)


class TestTransitionProduct:
    def test_empty_is_identity(self):
        assert np.array_equal(transition_product(DEMO, ()), np.eye(3))

    def test_latest_mode_leftmost(self):
        # two executes then two skips: the 4-step map A1 A1 A0 A0
        a, c = 0.5, 1000.0
        product = transition_product(DEMO, (0, 0, 1, 1))
        expected = np.array([
            [a**4, 0.0, a**4],
            [a**3 * c, 0.0, a**3 * c],
            [a**2 * c, 0.0, a**2 * c],
        ])
        assert np.allclose(product, expected, atol=1e-12)

    def test_single_step(self):
        assert np.array_equal(transition_product(DEMO, (0,)), DEMO.modes[0])

    def test_undeclared_mode(self):
        with pytest.raises(KeyError):
            transition_product(DEMO, (0, 2))

    @pytest.mark.parametrize("seed", range(10))
    def test_concatenation_splits(self, seed):
        rng = np.random.default_rng(1700 + seed)
        left = tuple(int(s) for s in rng.integers(0, 2, 5))
        right = tuple(int(s) for s in rng.integers(0, 2, 4))
        combined = transition_product(DEMO, left + right)
        split = transition_product(DEMO, right) @ transition_product(DEMO, left)
        scale = max(1.0, np.max(np.abs(combined)))
        assert np.max(np.abs(combined - split)) <= 1e-9 * scale


class TestAveragedSpectralRadius:
    def test_single_mode_scalar(self):
        system = SystemModel(modes={0: [[0.5]]})
        result = averaged_spectral_radius(system, MkConstraint(1, 2), 4)
        assert result.rho_hat == pytest.approx(0.5, abs=1e-12)
        assert result.sequence == (0, 0, 0, 0)
        assert result.count == 1

    def test_counts_and_argmax_validity(self):
        mk = MkConstraint(1, 2)
        result = averaged_spectral_radius(DEMO, mk, 10)
        assert result.count == count_mk_sequences(mk, 10)
        assert validate_mk(result.sequence, mk)
        # the reported sequence must actually attain the maximum
        product = transition_product(DEMO, result.sequence)
        radius = max(abs(v) for v in np.linalg.eigvals(product))
        assert radius ** (1 / 10) == pytest.approx(result.rho_hat, rel=1e-12)

    def test_exhaustive_cross_check(self):
        mk = MkConstraint(2, 4)
        length = 8
        best = max(
            max(abs(v) for v in np.linalg.eigvals(transition_product(DEMO, seq)))
            for seq in naive_admissible(mk, length)
        )
        result = averaged_spectral_radius(DEMO, mk, length)
        assert result.rho_hat == pytest.approx(best ** (1 / length), rel=1e-12)

    def test_three_modes_unsupported(self):
        system = SystemModel(modes={0: [[0.5]], 1: [[1.0]], 2: [[2.0]]})
        with pytest.raises(Exception, match="binary"):
            averaged_spectral_radius(system, MkConstraint(1, 2), 4)

    def test_chunked_flush_matches(self):
        mk = MkConstraint(1, 2)
        big = averaged_spectral_radius(DEMO, mk, 10)
        for chunk in (1, 2, 7):
            small = chunked_search(DEMO, mk, 10, chunk)
            assert small.rho_hat == big.rho_hat
            assert small.sequence == big.sequence
            assert small.count == big.count

    def test_hard_real_time_past_63_symbols(self):
        result = averaged_spectral_radius(DEMO, MkConstraint(2, 2), 70, max_length=70)
        assert result.sequence == (0,) * 70
        assert result.count == 1

    @pytest.mark.parametrize("length", [63, 64, 70])
    def test_attaining_sequence_past_63_symbols(self, length):
        # skip/execute alternation attains the maximum, so the maximiser sets
        # bits >= 63 of the packed (object-dtype) bits; the bound prunes every
        # branch that falls behind it, which keeps up to 5e14 sequences tractable
        mk = MkConstraint(1, 2)
        alternating = tuple(1 - i % 2 for i in range(length))
        result = averaged_spectral_radius(HALVE_DOUBLE, mk, length, max_length=length)
        assert result.sequence == alternating
        assert result.count == count_mk_sequences(mk, length)
        assert result.rho_hat == pytest.approx(2.0 ** ((length % 2) / length), rel=1e-12)

    def test_dead_branches_are_counted_once(self):
        # with one skip per 4-window no sequence of 6 starts "1,1"; the search
        # must neither enter nor count that branch
        mk = MkConstraint(3, 4)
        result = averaged_spectral_radius(HALVE_DOUBLE, mk, 6)
        assert result.count == len(naive_admissible(mk, 6))
        assert result.sequence == (1, 0, 0, 0, 1, 0)

    @pytest.mark.parametrize("A0, A1, m, K, length", [
        # the leaf's squared entries underflow to zero, yet it is the maximum
        (0.0, 1e-170, 0, 1, 1),
        # the four executes forced after a skip underflow in the bound table,
        # yet after the skip's gain that leaf is the maximum
        (1e-85, 1e100, 4, 5, 5),
    ])
    def test_underflow_prunes_nothing_it_cannot_bound(self, A0, A1, m, K, length):
        system = SystemModel(modes={0: [[A0]], 1: [[A1]]})
        mk = MkConstraint(m, K)
        result = averaged_spectral_radius(system, mk, length)
        assert result == references.averaged_spectral_radius(system, mk, length)

    def test_rounding_noise_is_bounded(self):
        # A0 is nilpotent up to rounding and A1 exactly, so every long product
        # is mostly matmul rounding noise, far above its exact value, and the
        # noise sets rho_hat; the bound must cover the walk's rounding
        system = SystemModel(modes={0: [[0.1, 0.3], [-0.1 * 0.1 / 0.3, -0.1]],
                                    1: [[0.7, 0.7], [-0.7, -0.7]]})
        mk = MkConstraint(2, 3)
        result = averaged_spectral_radius(system, mk, 12)
        assert result == references.averaged_spectral_radius(system, mk, 12)

    @pytest.fixture
    def eigvals_sent(self, monkeypatch):
        """The number of matrices in each call of ``np.linalg.eigvals`` during the test."""
        sent = []
        eigvals = np.linalg.eigvals

        def counting(a):
            sent.append(len(a) if np.ndim(a) == 3 else 1)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        return sent

    def test_demo_search_prunes_nearly_every_leaf(self, eigvals_sent):
        result = averaged_spectral_radius(DEMO, MkConstraint(2, 4), 24)
        assert result.count == 539_695
        assert result.sequence == (1, 1, 0, 0) * 6
        assert sum(eigvals_sent) < 0.01 * result.count

    def test_best_leaf_so_far_prunes_the_benchmark_search(self, eigvals_sent):
        # 5,279 matrices reach eigvals when only the tilings of words of period <= 10 set
        # the incumbent, 39,908 with period <= 6, and 552 once the best leaf so far
        # raises it too
        A0, A1 = JSR8_SEED5
        result = averaged_spectral_radius(SystemModel(modes={0: A0, 1: A1}),
                                          MkConstraint(3, 6), 20)
        assert result.count == 126_099
        assert sum(eigvals_sent) < 2_000

    def test_demo_merges_its_repeated_products(self, eigvals_sent):
        # the walk merges the nodes whose window state and product bits repeat; without
        # that, 835,509 matrices reach eigvals
        result = averaged_spectral_radius(DEMO, MkConstraint(1, 2), 32, max_length=32)
        assert result.count == 5_702_887
        assert result.sequence == (1, 0) * 15 + (0, 1)
        assert result.rho_hat == pytest.approx(0.6479444460021645, rel=1e-14)
        assert sum(eigvals_sent) < 100

    @pytest.mark.parametrize("mk", [MkConstraint(m, K) for K in range(1, 7)
                                    for m in range(K + 1)], ids=lambda mk: f"{mk.m},{mk.K}")
    def test_demo_equals_unpruned_walk(self, mk):
        # the demo's products repeat at every depth, also across automaton states: a
        # merge that ignored the state would return (1,0,0,0,1,0,0,0) at (3,4) L=8
        for length in range(mk.K, 15):
            assert (averaged_spectral_radius(DEMO, mk, length)
                    == references.averaged_spectral_radius(DEMO, mk, length))

    def test_peak_memory_of_the_demo_search(self):
        # the walk holds at most one cache-sized block of products per level
        tracemalloc.start()
        try:
            averaged_spectral_radius(DEMO, MkConstraint(1, 2), 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_wide_window_matches_unpruned_walk(self):
        # K = 12 with up to 11 skips per window: 2^11 automaton states
        system = SystemModel(modes={0: [[0.6, 0.3], [-0.2, 0.5]], 1: [[1.1, -0.4], [0.7, 0.2]]})
        mk = MkConstraint(1, 12)
        result = averaged_spectral_radius(system, mk, 14)
        assert result == references.averaged_spectral_radius(system, mk, 14)
        assert result.count == count_mk_sequences(mk, 14)

    @given(search_cases(matrix_pairs()))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, case):
        (A0, A1), mk, length = case
        system = SystemModel(modes={0: A0, 1: A1})
        reference = reference_search(system, mk, length)
        result = averaged_spectral_radius(system, mk, length)
        assert result.count == len(reference)
        best = max(radius for radius, _ in reference)
        assert result.rho_hat == pytest.approx(best ** (1 / length), rel=1e-12)
        assert validate_mk(result.sequence, mk)

    @given(wide_search_cases(st.one_of(matrix_pairs(), power_of_two_scalars,
                                       nilpotent_pairs())),
           st.sampled_from([None, 1, 2, 3, 7]))
    @settings(max_examples=150, deadline=None)
    @example((JSR8_SEED5, MkConstraint(3, 6), 12), None)
    @example((JSR8_SEED5, MkConstraint(3, 6), 12), 3)
    def test_pruned_equals_unpruned_walk(self, case, chunk):
        (A0, A1), mk, length = case
        system = SystemModel(modes={0: A0, 1: A1})
        result = chunked_search(system, mk, length, chunk)
        assert result == references.averaged_spectral_radius(system, mk, length)

    @given(search_cases(power_of_two_scalars), st.sampled_from([None, 1, 2, 3, 7]))
    @settings(max_examples=80, deadline=None)
    def test_tie_rule(self, case, chunk):
        # power-of-two products are exact, so ties are exact: the first
        # maximiser in descending order is the greatest of the maximisers
        (A0, A1), mk, length = case
        system = SystemModel(modes={0: A0, 1: A1})
        radius, sequence = max(reference_search(system, mk, length))
        result = chunked_search(system, mk, length, chunk)
        assert result.sequence == sequence
        assert result.rho_hat == radius ** (1 / length)

    @given(wide_search_cases(matrix_pairs()), st.sampled_from([1, 2, 3, 6]))
    @settings(max_examples=100, deadline=None)
    def test_restricted_walk_finds_the_best_tiling(self, case, period):
        (A0, A1), mk, length = case
        system = SystemModel(modes={0: A0, 1: A1})
        incumbent = restricted_walk(system, mk, length, period)
        assert incumbent == pytest.approx(best_tiling(system, mk, length, period),
                                          rel=1e-12, abs=0)
        reference = references.averaged_spectral_radius(system, mk, length)
        assert incumbent ** (1.0 / length) <= reference.rho_hat

    @pytest.mark.parametrize("length, radius", [(24, 2.384781837463379e-4),
                                                (70, 3.3889788219644557e-18)])
    def test_restricted_walk_on_the_demo(self, length, radius):
        # the restricted walk must not merge: equal products under different bits have
        # different tilings below them, and a merge drops the incumbent at L=24 to 5.96e-8;
        # at L=70 the bits are Python integers (object dtype)
        mk, period = MkConstraint(1, 2), sequences.INCUMBENT_PERIOD
        incumbent = restricted_walk(DEMO, mk, length, period)
        assert incumbent == pytest.approx(radius, rel=1e-12, abs=0)
        assert incumbent == pytest.approx(best_tiling(DEMO, mk, length, period),
                                          rel=1e-12, abs=0)
