import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projtune.errors import DomainError
from projtune.numerics import SeededRng, mars_norm
from projtune.projection import row_displacement

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestMarsNorm:
    def test_hand_example(self):
        assert mars_norm([[1.0, -2.0], [3.0, 4.0]]) == 7.0

    def test_zero_matrix(self):
        assert mars_norm(np.zeros((3, 4))) == 0.0

    def test_identity(self):
        assert mars_norm(np.eye(3)) == 1.0

    def test_vector_is_single_row(self):
        assert mars_norm([1.0, -2.0, 3.0]) == 6.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mars_norm(np.zeros((0, 3)))

    @given(finite_matrices)
    def test_cross_check_against_row_distances(self, w):
        assert mars_norm(w) == row_displacement(w, np.zeros_like(w))[1].max()

    @given(finite_matrices, st.floats(-100, 100, allow_nan=False))
    def test_absolute_homogeneity(self, w, c):
        assert mars_norm(c * w) == pytest.approx(abs(c) * mars_norm(w), rel=1e-12, abs=1e-9)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, seed):
        rng = SeededRng(seed)
        a = rng.normal((5, 7))
        b = rng.normal((5, 7))
        assert mars_norm(a + b) <= mars_norm(a) + mars_norm(b) + 1e-9


class TestSeededRng:
    def test_same_seed_bit_identical(self):
        a = SeededRng(99).normal((5, 4))
        b = SeededRng(99).normal((5, 4))
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        r = SeededRng(7)
        a = r.derive(1).normal((3, 3))
        b = r.derive(2).normal((3, 3))
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic(self):
        a = SeededRng(5).derive(2, 9).normal((2, 2))
        b = SeededRng(5).derive(2, 9).normal((2, 2))
        np.testing.assert_array_equal(a, b)

    def test_zero_stddev_all_mean(self):
        m = SeededRng(1).normal((3, 3), mean=2.5, stddev=0.0)
        np.testing.assert_array_equal(m, np.full((3, 3), 2.5))

    def test_negative_stddev_rejected(self):
        with pytest.raises(DomainError):
            SeededRng(1).normal((2, 2), stddev=-1.0)

    def test_large_sample_moments(self):
        x = SeededRng(2024).normal((1000, 100))
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.05

    def test_outputs_are_float64(self):
        assert SeededRng(3).normal((2, 2)).dtype == np.float64


def drawn(rng):
    """What a stream gives through ``choice``, ``normal`` and ``permutation``, as bytes."""
    return (rng.choice(40, 16, replace=False).tobytes() + rng.normal((2, 3)).tobytes()
            + rng.permutation(12).tobytes())


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 3, 2**32 + 1, 2**40 + 5])
    def test_key_built_streams_equal_derived_ones(self, seed):
        root = SeededRng(seed)
        counters = range(1, 2001)
        for tag in (101, 103):
            for t, rng in zip(counters, root.streams(tag, counters), strict=True):
                assert rng.stream == (tag, t)
                assert drawn(rng) == drawn(root.derive(tag, t)), (tag, t)
        for t, rngs in zip(counters, root.streams(102, counters, width=3), strict=True):
            assert [drawn(r) for r in rngs] == [drawn(root.derive(102, t, j)) for j in range(3)]

    def test_a_child_stream_keys_from_its_own_stream(self):
        child = SeededRng(7).derive(4, 2)
        [rng] = child.streams(9, range(5, 6))
        assert drawn(rng) == drawn(child.derive(9, 5))

    @pytest.mark.parametrize("start", [2, 1024, 1025, 1500])
    def test_a_resumed_counter_range_continues_the_full_one(self, start):
        root = SeededRng(11)
        full = [drawn(r) for r in root.streams(101, range(1, 2101))]
        assert [drawn(r) for r in root.streams(101, range(start, 2101))] == full[start - 1:]

    @pytest.mark.parametrize("counters", [range(2**32 - 2, 2**32 + 2), range(2**40, 2**40 + 2)])
    def test_counters_past_32_bits_draw_the_derived_stream(self, counters):
        root = SeededRng(5)
        assert [drawn(r) for r in root.streams(101, counters)] == \
            [drawn(root.derive(101, t)) for t in counters]
        assert [[drawn(r) for r in rngs] for rngs in root.streams(102, counters, width=2)] == \
            [[drawn(root.derive(102, t, j)) for j in range(2)] for t in counters]

    def test_zero_width_gives_empty_lists(self):
        assert list(SeededRng(1).streams(102, range(1, 4), width=0)) == [[], [], []]

    def test_a_key_is_given_only_as_philox_asks_for_it(self):
        from projtune.numerics import _PhiloxKey

        key = _PhiloxKey(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(TypeError):
            key.generate_state(4)
