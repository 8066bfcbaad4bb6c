import json
import tracemalloc

import numpy as np
import pytest

import projtune.model as model_mod
from projtune.audit import (
    AUDIT_CHUNK_ROWS,
    ONE_LIPSCHITZ_ACTIVATIONS,
    estimate_diff_lipschitz_lb,
    gaussian_pair_sampler,
    mixed_pair_sampler,
    sign_probe_inputs,
    verify_lemma1_bound,
)
from projtune.errors import DomainError
from projtune.model import MlpSpec, forward, init_params
from projtune.numerics import SeededRng, mars_norm
from projtune.projection import project_rows


class TestLayerUpper:
    def test_sign_input_attains_the_norm(self):
        w = SeededRng(3).normal((5, 7))
        probes = sign_probe_inputs(w)
        ratios = [np.abs(w @ s).max() / np.abs(s).max() for s in probes]
        assert max(ratios) == pytest.approx(mars_norm(w), abs=1e-9)


class TestDiffLipschitzLowerBound:
    def test_adversarial_pairs_attain_mars_norm(self):
        w0 = np.zeros((1, 2))
        wf = np.array([[1.0, -1.0]])
        sampler = mixed_pair_sampler(SeededRng(0), 2, probe_matrices=[wf - w0])
        est = estimate_diff_lipschitz_lb(wf, w0, sampler, n_pairs=50)
        assert est == pytest.approx(2.0, abs=1e-9)

    def test_equal_weights_give_zero(self):
        w = SeededRng(1).normal((3, 4))
        sampler = gaussian_pair_sampler(SeededRng(2), 4)
        assert estimate_diff_lipschitz_lb(w, w, sampler, n_pairs=100) == 0.0

    def test_random_sampler_never_exceeds_mars_norm(self):
        rng = SeededRng(5)
        for trial in range(20):
            wf = rng.derive(trial, 0).normal((4, 6))
            w0 = rng.derive(trial, 1).normal((4, 6))
            sampler = gaussian_pair_sampler(rng.derive(trial, 2), 6)
            est = estimate_diff_lipschitz_lb(wf, w0, sampler, n_pairs=500)
            assert est <= mars_norm(wf - w0) + 1e-9

    def test_degenerate_sampler_rejected(self):
        def same_point(n):
            x = np.ones((n, 3))
            return x, x.copy()

        with pytest.raises(DomainError):
            estimate_diff_lipschitz_lb(np.zeros((2, 3)), np.ones((2, 3)), same_point, 10)

    def test_needs_at_least_one_pair(self):
        with pytest.raises(DomainError):
            estimate_diff_lipschitz_lb(
                np.zeros((2, 3)), np.zeros((2, 3)), gaussian_pair_sampler(SeededRng(0), 3), 0
            )

    def test_coincident_pairs_are_skipped_not_counted(self):
        rng = SeededRng(9)
        wf, w0 = rng.normal((3, 4)), rng.normal((3, 4))

        def half_degenerate(n):
            x = rng.normal((n, 4))
            x_prime = x.copy()
            x_prime[n // 2 :] = rng.normal((n - n // 2, 4))
            return x, x_prime

        est = estimate_diff_lipschitz_lb(wf, w0, half_degenerate, 100)
        assert 0.0 < est <= mars_norm(wf - w0) + 1e-9


def linear_pair(seed, dim=5, out=4, spread=0.5):
    spec = MlpSpec(widths=(dim, out), loss="mse")
    rng = SeededRng(seed)
    params_0 = init_params(spec, rng.derive(0))
    params_f = {
        name: v + rng.derive(1, i).normal(v.shape, stddev=spread)
        for i, (name, v) in enumerate(params_0.items())
    }
    return spec, params_f, params_0


class TestLemma1Bound:
    def test_single_layer_bound_holds_on_samples(self):
        spec, params_f, params_0 = linear_pair(7)
        sampler = mixed_pair_sampler(
            SeededRng(8), 5, probe_matrices=[params_f["layer0.weight"] - params_0["layer0.weight"]]
        )
        ok, report = verify_lemma1_bound(spec, params_f, params_0, sampler, n_pairs=2000)
        assert ok
        layer = report.layers[0]
        assert report.network_ratio_max <= layer.diff_norm + layer.anchor_norm + 1e-9
        assert report.diff_lipschitz_lb <= layer.diff_norm + 1e-9

    def test_equal_models_bounded_by_anchor_norm(self):
        spec, _, params_0 = linear_pair(9)
        sampler = gaussian_pair_sampler(SeededRng(10), 5)
        ok, report = verify_lemma1_bound(spec, params_0, params_0, sampler, n_pairs=500)
        assert ok
        assert report.layers[0].diff_norm == 0.0
        assert report.network_ratio_max <= report.layers[0].anchor_norm + 1e-9

    def test_projected_model_diff_bounded_by_gamma(self):
        rng = SeededRng(11)
        for trial in range(10):
            spec, params_f, params_0 = linear_pair(100 + trial)
            gamma = float(rng.uniform((), 0.05, 0.8))
            projected = dict(params_f)
            projected["layer0.weight"] = project_rows(
                params_f["layer0.weight"], params_0["layer0.weight"], gamma
            )
            sampler = gaussian_pair_sampler(rng.derive(trial), 5)
            _, report = verify_lemma1_bound(spec, projected, params_0, sampler, n_pairs=200)
            assert report.layers[0].diff_norm <= gamma + 1e-9

    def test_deep_net_composition_bound(self):
        spec = MlpSpec(widths=(4, 6, 3), activations=("relu",), loss="mse")
        rng = SeededRng(12)
        params_0 = init_params(spec, rng.derive(0))
        params_f = {
            name: v + rng.derive(1, i).normal(v.shape, stddev=0.2)
            for i, (name, v) in enumerate(params_0.items())
        }
        sampler = gaussian_pair_sampler(rng.derive(2), 4)
        ok, report = verify_lemma1_bound(spec, params_f, params_0, sampler, n_pairs=1000)
        assert ok
        prod = np.prod([mars_norm(params_f[f"layer{i}.weight"]) for i in range(2)])
        assert report.network_upper_bound == pytest.approx(float(prod))
        assert report.network_ratio_max <= report.network_upper_bound + 1e-9

    def test_non_one_lipschitz_activation_rejected(self, monkeypatch):
        monkeypatch.setitem(
            model_mod.ACTIVATIONS, "double", (lambda z: 2.0 * z, lambda z: 2.0 * np.ones_like(z))
        )
        spec = MlpSpec(widths=(3, 4, 2), activations=("double",), loss="mse")
        assert "double" not in ONE_LIPSCHITZ_ACTIVATIONS
        with pytest.raises(NotImplementedError):
            verify_lemma1_bound(
                spec, {}, {}, gaussian_pair_sampler(SeededRng(0), 3), n_pairs=10
            )

    def test_monotone_tightening(self):
        # shrinking the projection radius never increases the reported
        # difference norm
        rng = SeededRng(16)
        for trial in range(10):
            spec, params_f, params_0 = linear_pair(300 + trial)
            sampler_rng = rng.derive(trial)
            radii = sorted(float(g) for g in rng.uniform((4,), 0.01, 1.0))
            last_ld = -1.0
            for gamma in radii:
                projected = dict(params_f)
                projected["layer0.weight"] = project_rows(
                    params_f["layer0.weight"], params_0["layer0.weight"], gamma
                )
                _, report = verify_lemma1_bound(
                    spec, projected, params_0,
                    gaussian_pair_sampler(sampler_rng, 5), n_pairs=50,
                )
                assert report.layers[0].diff_norm >= last_ld - 1e-12
                last_ld = report.layers[0].diff_norm

    def test_report_serializes_to_json(self, tmp_path):
        spec, params_f, params_0 = linear_pair(13)
        sampler = gaussian_pair_sampler(SeededRng(14), 5)
        _, report = verify_lemma1_bound(spec, params_f, params_0, sampler, n_pairs=100)
        out = tmp_path / "report.json"
        report.to_json(out)
        data = json.loads(out.read_text())
        assert data["n_pairs"] == 100
        assert data["layers"][0]["name"] == "layer0.weight"
        assert data["bound_satisfied"] is True


def tuned_pair(widths, seed=21):
    """A tanh net and a copy of it moved by small noise, as (spec, fine-tuned, anchor)."""
    spec = MlpSpec(widths=widths, activations=("tanh",) * (len(widths) - 2))
    rng = SeededRng(seed)
    params_0 = init_params(spec, rng.derive(0))
    params_f = {name: v + rng.derive(1, i).normal(v.shape, stddev=0.05)
                for i, (name, v) in enumerate(params_0.items())}
    return spec, params_f, params_0


def recording(sampler):
    """``sampler``, keeping each draw it returns in the list ``draws``."""
    draws = []

    def sample(n):
        draws.append(sampler(n))
        return draws[-1]

    return sample, draws


def whole_pass_ratios(spec, params_f, params_0, x, x_prime):
    """Both sampled maxima of the audit, from one forward pass over all rows."""
    denom = np.abs(x - x_prime).max(axis=1)
    hf = forward(spec, params_f, x) - forward(spec, params_f, x_prime)
    h0 = forward(spec, params_0, x) - forward(spec, params_0, x_prime)
    return (np.abs(hf).max(axis=1) / denom).max(), (np.abs(hf - h0).max(axis=1) / denom).max()


class TestChunkedAudit:
    @pytest.mark.parametrize("widths", [(8, 16, 16, 4), (8, 512, 512, 4)],
                             ids=["desk", "wide"])
    @pytest.mark.parametrize("n_pairs", [1, 2047, 4095, 4096, 10_000, 20_001])
    def test_report_is_bitwise_the_whole_pass(self, widths, n_pairs):
        spec, params_f, params_0 = tuned_pair(widths)
        diff = params_f["layer0.weight"] - params_0["layer0.weight"]
        sampler, draws = recording(mixed_pair_sampler(SeededRng(n_pairs), 8,
                                                      probe_matrices=[diff]))
        ok, report = verify_lemma1_bound(spec, params_f, params_0, sampler, n_pairs)
        ratio, diff_lb = whole_pass_ratios(spec, params_f, params_0, *draws[0])
        assert report.n_pairs == n_pairs
        assert report.network_ratio_max.hex() == float(ratio).hex()
        assert report.diff_lipschitz_lb.hex() == float(diff_lb).hex()
        assert ok == (ratio <= report.network_upper_bound + 1e-9)

    def test_coincident_pairs_are_dropped_before_chunking(self):
        spec, params_f, params_0 = tuned_pair((8, 16, 16, 4))

        def some_coincident(n):
            x, x_prime = gaussian_pair_sampler(SeededRng(4), 8)(n)
            x_prime[::3] = x[::3]
            return x, x_prime

        sampler, draws = recording(some_coincident)
        _, report = verify_lemma1_bound(spec, params_f, params_0, sampler, 9000)
        x, x_prime = draws[0]
        keep = np.abs(x - x_prime).max(axis=1) > 0
        ratio, diff_lb = whole_pass_ratios(spec, params_f, params_0, x[keep], x_prime[keep])
        assert report.n_pairs == 6000
        assert (report.network_ratio_max, report.diff_lipschitz_lb) == (ratio, diff_lb)

    def test_nan_weight_gives_nan_report_and_a_failed_bound(self):
        spec, params_f, params_0 = tuned_pair((8, 16, 16, 4))
        params_f["layer1.weight"][3, 2] = np.nan
        ok, report = verify_lemma1_bound(spec, params_f, params_0,
                                         gaussian_pair_sampler(SeededRng(1), 8), 10_000)
        assert not ok and not report.bound_satisfied
        assert np.isnan(report.network_ratio_max) and np.isnan(report.diff_lipschitz_lb)

    def test_nan_in_a_later_chunk_reaches_the_report(self):
        # an infinite input row turns into NaN in the net; it sits in the last chunk only
        spec, params_f, params_0 = tuned_pair((8, 16, 16, 4))

        def late_infinity(n):
            x, x_prime = gaussian_pair_sampler(SeededRng(2), 8)(n)
            x[n - 1] = np.inf
            return x, x_prime

        n_pairs = 3 * AUDIT_CHUNK_ROWS
        with np.errstate(invalid="ignore"):
            ok, report = verify_lemma1_bound(spec, params_f, params_0, late_infinity, n_pairs)
        assert report.n_pairs == n_pairs
        assert not ok
        assert np.isnan(report.network_ratio_max) and np.isnan(report.diff_lipschitz_lb)

    # the 200,000 pairs run on one hidden layer: on 8-512-512-4 they take about 9 s, and
    # the whole draws (24.4 MiB) plus the two 512-wide buffers (16.1 MiB) already exceed
    # 40 MiB there
    @pytest.mark.parametrize("widths, n_pairs, limit_mib", [
        ((8, 512, 512, 4), 10_000, 25), ((8, 512, 4), 200_000, 40),
    ])
    def test_traced_peak_is_bounded(self, widths, n_pairs, limit_mib):
        spec, params_f, params_0 = tuned_pair(widths)
        sampler = gaussian_pair_sampler(SeededRng(3), 8)
        tracemalloc.start()
        try:
            verify_lemma1_bound(spec, params_f, params_0, sampler, n_pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


class TestReverseTriangle:
    def test_linf_reverse_triangle_inequality(self):
        rng = SeededRng(15)
        for trial in range(200):
            a = rng.derive(trial, 0).normal((8,))
            b = rng.derive(trial, 1).normal((8,))
            lhs = abs(np.abs(a).max() - np.abs(b).max())
            rhs = np.abs(a - b).max()
            assert lhs <= rhs + 1e-12
