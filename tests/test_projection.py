import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projtune.errors import DomainError, UnsupportedShapeError
from projtune.numerics import SeededRng, mars_norm
from projtune.projection import canonicalize, project_rows, row_displacement


class TestCanonicalize:
    def test_matrix_unchanged(self):
        v = canonicalize(np.zeros((3, 5)), name="w")
        assert (v.rows, v.cols) == (3, 5)

    def test_bias_becomes_row(self):
        v = canonicalize(np.zeros(7), name="b")
        assert (v.rows, v.cols) == (1, 7)

    def test_conv_kernel_flattens_trailing(self):
        v = canonicalize(np.zeros((8, 3, 3, 3)))
        assert (v.rows, v.cols) == (8, 27)

    def test_rank5_unsupported(self):
        with pytest.raises(UnsupportedShapeError):
            canonicalize(np.zeros((2, 2, 2, 2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            canonicalize(np.zeros((0, 3)))

    def test_roundtrip_preserves_elements(self):
        t = SeededRng(0).normal((4, 2, 3))
        v = canonicalize(t)
        np.testing.assert_array_equal(v.to_2d(t).reshape(v.source_shape), t)
        assert v.rows * v.cols == t.size


class TestProjectRows:
    def test_hand_example(self):
        got = project_rows(np.array([[3.0, -4.0]]), np.zeros((1, 2)), 2.0)
        np.testing.assert_allclose(got, [[6.0 / 7.0, -8.0 / 7.0]])

    def test_inside_ball_untouched_bitwise(self):
        w = np.array([[1.0, 0.0]])
        out = project_rows(w, np.zeros((1, 2)), 5.0)
        np.testing.assert_array_equal(out, w)
        assert out is not w  # new array, same bits

    def test_zero_displacement(self):
        w0 = SeededRng(1).normal((3, 4))
        for gamma in (0.0, 1e-8, 2.0):
            np.testing.assert_array_equal(project_rows(w0, w0, gamma), w0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            project_rows(np.zeros((1, 2)), np.zeros((1, 2)), -0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            project_rows(np.zeros((1, 2)), np.zeros((2, 2)), 1.0)

    def test_all_shrunk_rows_are_the_per_row_formula_bitwise(self):
        rng = SeededRng(4)
        w0 = rng.normal((9, 7))
        w = w0 + rng.normal((9, 7), stddev=3.0)
        delta = w - w0
        dist = np.abs(delta).sum(axis=1)
        gamma = 0.5 * float(dist.min())   # every row leaves the ball
        want = np.stack([w0[i] + (gamma / dist[i]) * delta[i] for i in range(9)])
        assert project_rows(w, w0, gamma).tobytes() == want.tobytes()

    def test_per_row_radii_are_each_row_projected_alone(self):
        rng = SeededRng(5)
        w, w0 = rng.normal((6, 4)), rng.normal((6, 4))
        radii = np.array([0.0, 0.5, 1.0, 2.0, np.inf, 3.0])
        want = np.concatenate([project_rows(w[i:i + 1], w0[i:i + 1], r)
                               for i, r in enumerate(radii)])
        out = np.empty_like(w)
        assert project_rows(w, w0, radii, out=out) is out
        assert out.tobytes() == want.tobytes()
        with pytest.raises(DomainError):
            project_rows(w, w0, radii[:5])
        with pytest.raises(DomainError):
            project_rows(w, w0, np.where(radii == 2.0, np.nan, radii))

    @pytest.mark.parametrize("rows, cols", [(6, 4), (64, 512)])
    @pytest.mark.parametrize("shrunk_share", [0.1, 0.5, 0.9])
    def test_mixed_rows_are_each_row_projected_alone(self, rows, cols, shrunk_share):
        # small arrays copy the kept rows back through a mask, large ones by
        # index, rescaling every row or only the shrunk ones
        rng = SeededRng(6)
        w, w0 = rng.normal((rows, cols)), rng.normal((rows, cols))
        dist = np.abs(w - w0).sum(axis=1)
        radii = np.where(rng.derive(1).uniform(rows) < shrunk_share, 0.5, 2.0) * dist
        want = np.concatenate([project_rows(w[i:i + 1], w0[i:i + 1], r)
                               for i, r in enumerate(radii)])
        assert project_rows(w, w0, radii).tobytes() == want.tobytes()
        out = np.full_like(w, np.nan)
        assert project_rows(w, w0, radii, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_infinite_gamma_is_identity(self):
        rng = SeededRng(9)
        w, w0 = rng.normal((5, 5)), rng.normal((5, 5))
        np.testing.assert_array_equal(project_rows(w, w0, np.inf), w)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0, allow_nan=False))
    def test_constraint_always_satisfied(self, seed, gamma):
        rng = SeededRng(seed)
        w, w0 = rng.normal((6, 4), stddev=2.0), rng.normal((6, 4), stddev=2.0)
        out = project_rows(w, w0, gamma)
        assert mars_norm(out - w0) <= gamma + 1e-9

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        rng = SeededRng(seed)
        w, w0 = rng.normal((4, 5)), rng.normal((4, 5))
        once = project_rows(w, w0, 0.7)
        twice = project_rows(once, w0, 0.7)
        np.testing.assert_allclose(twice, once, atol=1e-12, rtol=0)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_direction_preserved(self, seed):
        rng = SeededRng(seed)
        w, w0 = rng.normal((4, 5)), rng.normal((4, 5))
        out = project_rows(w, w0, 0.3)
        before = w - w0
        after = out - w0
        for i in range(w.shape[0]):
            denom = float(before[i] @ before[i])
            scale = float(after[i] @ before[i]) / denom
            assert scale >= 0.0
            np.testing.assert_allclose(after[i], scale * before[i], atol=1e-12)

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 3.0, allow_nan=False),
        st.floats(0.0, 3.0, allow_nan=False),
    )
    def test_monotone_in_gamma(self, seed, g1, g2):
        lo, hi = sorted((g1, g2))
        rng = SeededRng(seed)
        w, w0 = rng.normal((5, 3), stddev=2.0), rng.normal((5, 3), stddev=2.0)
        d_lo = row_displacement(project_rows(w, w0, lo), w0)[1]
        d_hi = row_displacement(project_rows(w, w0, hi), w0)[1]
        assert (d_lo <= d_hi + 1e-9).all()
