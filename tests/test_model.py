import math
from collections import Counter

import numpy as np
import pytest

from projtune.errors import ConfigError, DomainError
from projtune.model import (
    Batch,
    MlpSpec,
    _forward_trace,
    backward,
    evaluate_loss,
    finite_diff_grad,
    forward,
    init_params,
)
from projtune.numerics import SeededRng


def random_net(seed, widths, activations, loss):
    spec = MlpSpec(widths=widths, activations=activations, loss=loss)
    rng = SeededRng(seed)
    params = init_params(spec, rng.derive(0))
    x = rng.derive(1).normal((5, widths[0]))
    if loss == "softmax_ce":
        y = np.asarray(rng.derive(2).integers(0, widths[-1], size=5))
    else:
        y = rng.derive(2).normal((5, widths[-1]))
    return spec, params, Batch(x, y)


def max_rel_err(ga, gb):
    worst = 0.0
    for name in ga:
        a, b = ga[name], gb[name]
        denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
        worst = max(worst, float(np.abs(a - b).max() / denom))
    return worst


class TestSpecValidation:
    def test_needs_two_widths(self):
        with pytest.raises(ConfigError):
            MlpSpec(widths=(4,))

    def test_positive_widths(self):
        with pytest.raises(ConfigError):
            MlpSpec(widths=(4, 0))

    def test_activation_count_must_match(self):
        with pytest.raises(ConfigError):
            MlpSpec(widths=(4, 3, 2), activations=())

    def test_unknown_loss(self):
        with pytest.raises(ConfigError):
            MlpSpec(widths=(4, 2), loss="hinge")

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            MlpSpec(widths=(4, 3, 2), activations=("gelu",))


class TestForward:
    def test_identity_single_layer_maps_inputs_through(self):
        spec = MlpSpec(widths=(3, 3), loss="mse")
        params = {"layer0.weight": np.eye(3), "layer0.bias": np.zeros(3)}
        x = SeededRng(0).normal((6, 3))
        np.testing.assert_array_equal(forward(spec, params, x), x)

    def test_relu_kills_negative_preactivations(self):
        spec = MlpSpec(widths=(2, 4, 3), activations=("relu",), loss="mse")
        params = {
            "layer0.weight": -np.ones((4, 2)),
            "layer0.bias": np.zeros(4),
            "layer1.weight": SeededRng(1).normal((3, 4)),
            "layer1.bias": np.zeros(3),
        }
        x = np.abs(SeededRng(2).normal((5, 2))) + 0.1
        np.testing.assert_array_equal(forward(spec, params, x), np.zeros((5, 3)))

    def test_matches_handrolled_two_layer_net(self):
        spec, params, batch = random_net(42, (3, 4, 2), ("tanh",), "mse")
        # independent oracle: explicit per-sample loops, no shared code path
        expected = np.zeros((batch.inputs.shape[0], 2))
        for b in range(batch.inputs.shape[0]):
            h = np.zeros(4)
            for i in range(4):
                s = params["layer0.bias"][i]
                for j in range(3):
                    s += params["layer0.weight"][i, j] * batch.inputs[b, j]
                h[i] = math.tanh(s)
            for i in range(2):
                s = params["layer1.bias"][i]
                for j in range(4):
                    s += params["layer1.weight"][i, j] * h[j]
                expected[b, i] = s
        np.testing.assert_allclose(forward(spec, params, batch.inputs), expected, rtol=1e-12)

    def test_input_width_mismatch(self):
        spec = MlpSpec(widths=(3, 2), loss="mse")
        params = init_params(spec, SeededRng(0))
        with pytest.raises(DomainError):
            forward(spec, params, np.zeros((4, 5)))


class TestStreamingForward:
    @staticmethod
    def net(widths, activation, seed=3):
        spec = MlpSpec(widths=widths, activations=(activation,) * (len(widths) - 2),
                       loss="mse")
        rng = SeededRng(seed)
        params = init_params(spec, rng.derive(0))
        for i in range(spec.n_layers):
            params[f"layer{i}.bias"] = rng.derive(1 + i).normal((widths[i + 1],))
        return spec, params

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("widths", [(6, 3), (6, 9, 3), (6, 16, 8, 3), (6, 512, 512, 4)])
    def test_bitwise_equal_to_trace(self, activation, widths):
        spec, params = self.net(widths, activation)
        work: dict = {}
        for rows in (1, 5, 64, 257):
            x = SeededRng(rows).normal((rows, widths[0]))
            for inputs in (x, np.asfortranarray(x)):
                want = _forward_trace(spec, params, inputs)[-1]
                for got in (forward(spec, params, inputs),
                            forward(spec, params, inputs, work=work)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_results_sharing_work_are_independent(self):
        spec, params = self.net((6, 16, 16, 3), "tanh")
        work: dict = {}
        first = forward(spec, params, SeededRng(1).normal((20, 6)), work=work)
        kept = first.copy()
        second = forward(spec, params, SeededRng(2).normal((20, 6)), work=work)
        assert first.tobytes() == kept.tobytes()
        for buf in [second, *work.values()]:
            assert not np.shares_memory(first, buf)

    def test_work_holds_at_most_two_buffers_per_width_grown_to_the_tallest_batch(self):
        spec, params = self.net((6, 16, 16, 16, 32, 16, 3), "relu")
        work: dict = {}
        for rows in (10, 10, 20, 10):
            forward(spec, params, np.ones((rows, 6)), work=work)
        assert Counter(buf.shape for buf in work.values()) == {(20, 16): 2, (20, 32): 1}

    def test_a_shorter_batch_after_a_taller_one_is_bitwise_its_own_pass(self):
        spec, params = self.net((6, 512, 512, 4), "tanh")
        work: dict = {}
        for rows in (4096, 4095, 2048, 1):
            x = SeededRng(rows).normal((rows, 6))
            assert forward(spec, params, x, work=work).tobytes() == \
                forward(spec, params, x).tobytes()
        assert [buf.shape for buf in work.values()] == [(4096, 512)] * 2


class TestBackward:
    def test_quadratic_closed_form(self):
        # single linear layer, MSE: dL/dW = 2 (W x - y) x^T / batch
        spec = MlpSpec(widths=(3, 2), loss="mse")
        rng = SeededRng(7)
        params = init_params(spec, rng.derive(0))
        x = rng.derive(1).normal((8, 3))
        y = rng.derive(2).normal((8, 2))
        _, grads = backward(spec, params, Batch(x, y))
        resid = x @ params["layer0.weight"].T + params["layer0.bias"] - y
        np.testing.assert_allclose(grads["layer0.weight"], 2.0 * resid.T @ x / 8.0, rtol=1e-12)
        np.testing.assert_allclose(grads["layer0.bias"], 2.0 * resid.sum(axis=0) / 8.0, rtol=1e-12)

    def test_gradient_near_zero_at_fitted_minimum(self):
        # least squares has a closed-form minimum; gradients there must vanish
        spec = MlpSpec(widths=(3, 2), loss="mse")
        rng = SeededRng(3)
        x = rng.derive(0).normal((20, 3))
        y = rng.derive(1).normal((20, 2))
        xa = np.hstack([x, np.ones((20, 1))])
        sol, *_ = np.linalg.lstsq(xa, y, rcond=None)
        params = {"layer0.weight": sol[:3].T.copy(), "layer0.bias": sol[3].copy()}
        _, grads = backward(spec, params, Batch(x, y))
        for g in grads.values():
            assert np.abs(g).max() < 1e-6

    def test_uniform_logits_cross_entropy_is_log_k(self):
        spec = MlpSpec(widths=(3, 4), loss="softmax_ce")
        params = {"layer0.weight": np.zeros((4, 3)), "layer0.bias": np.zeros(4)}
        x = SeededRng(5).normal((10, 3))
        y = np.asarray(SeededRng(6).integers(0, 4, size=10))
        loss, _ = backward(spec, params, Batch(x, y))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_invalid_labels_rejected(self):
        spec = MlpSpec(widths=(3, 4), loss="softmax_ce")
        params = init_params(spec, SeededRng(0))
        x = np.zeros((2, 3))
        with pytest.raises(DomainError):
            backward(spec, params, Batch(x, np.array([0, 4])))
        with pytest.raises(DomainError):
            backward(spec, params, Batch(x, np.array([0.0, 1.0])))

    def test_permutation_covariant(self):
        spec, params, batch = random_net(11, (4, 5, 3), ("relu",), "softmax_ce")
        loss_a, grads_a = backward(spec, params, batch)
        perm = SeededRng(12).permutation(batch.inputs.shape[0])
        shuffled = Batch(batch.inputs[perm], batch.targets[perm])
        loss_b, grads_b = backward(spec, params, shuffled)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=1e-10, atol=1e-12)


def frozen_loss_and_delta(loss_kind, outputs, t):
    """The loss and its output gradient as an earlier version computed them."""
    n = outputs.shape[0]
    if loss_kind == "softmax_ce":
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(logsumexp - shifted[np.arange(n), t]))
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), t] -= 1.0
        return loss, probs / n
    diff = outputs - t
    return float(np.mean((diff * diff).sum(axis=1))), 2.0 * diff / n


FROZEN_DERIVATIVES = {
    "relu": lambda z: (z > 0).astype(np.float64),
    "tanh": lambda z: 1.0 - np.tanh(z) * np.tanh(z),
    "identity": np.ones_like,
}


def frozen_backward(spec, params, batch):
    """backward as an earlier version computed it: derivatives from the pre-activations."""
    h, pre, acts = batch.inputs, [], [batch.inputs]
    for i in range(spec.n_layers):
        z = h @ params[f"layer{i}.weight"].T + params[f"layer{i}.bias"]
        pre.append(z)
        h = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh,
             "identity": lambda z: z}[spec.activations[i]](z) if i < spec.n_layers - 1 else z
        acts.append(h)
    loss, delta = frozen_loss_and_delta(spec.loss, acts[-1], batch.targets)
    grads = {}
    for i in reversed(range(spec.n_layers)):
        grads[f"layer{i}.weight"] = delta.T @ acts[i]
        grads[f"layer{i}.bias"] = delta.sum(axis=0)
        if i > 0:
            dact = FROZEN_DERIVATIVES[spec.activations[i - 1]]
            delta = (delta @ params[f"layer{i}.weight"]) * dact(pre[i - 1])
    return loss, grads


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("loss", ["softmax_ce", "mse"])
@pytest.mark.parametrize("widths", [(8, 16, 16, 4), (8, 512, 512, 4)])
def test_backward_is_bitwise_the_frozen_formula(activation, loss, widths):
    spec = MlpSpec(widths=widths, activations=(activation,) * 2, loss=loss)
    rng = SeededRng(31)
    params = init_params(spec, rng.derive(0))
    for i in range(spec.n_layers):
        params[f"layer{i}.bias"] = rng.derive(1, i).normal((widths[i + 1],), stddev=0.3)
    out = {name: np.empty_like(v) for name, v in params.items()}
    for trial in range(6 if widths[1] > 16 else 25):
        x = rng.derive(2, trial).normal((16, widths[0]), stddev=2.0)
        if loss == "softmax_ce":
            y = np.asarray(rng.derive(3, trial).integers(0, widths[-1], size=16))
        else:
            y = rng.derive(3, trial).normal((16, widths[-1]))
        want_loss, want = frozen_backward(spec, params, Batch(x, y))
        for got_loss, got in (backward(spec, params, Batch(x, y)),
                              backward(spec, params, Batch(x, y), out=out)):
            assert got_loss == want_loss
            assert list(got) == spec.layer_names()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (trial, name)
        assert all(got[name] is out[name] for name in out)


def frozen_case(widths=(8, 16, 16, 4), activation="tanh", loss="softmax_ce", seed=31):
    spec = MlpSpec(widths=widths, activations=(activation,) * (len(widths) - 2), loss=loss)
    rng = SeededRng(seed)
    params = init_params(spec, rng.derive(0))
    for i in range(spec.n_layers):
        params[f"layer{i}.bias"] = rng.derive(1, i).normal((widths[i + 1],), stddev=0.3)
    return spec, params, rng


def assert_frozen_bits(spec, params, batch):
    want_loss, want = frozen_backward(spec, params, batch)
    got_loss, got = backward(spec, params, batch)
    assert got_loss == want_loss
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)


@pytest.mark.parametrize("loss", ["softmax_ce", "mse"])
def test_batch_sizes_interleaved_in_one_process_are_the_frozen_bits(loss):
    # the row index of the loss is kept per batch size; sizes alternate here
    spec, params, rng = frozen_case(loss=loss)
    for trial, n in enumerate((1, 5, 16, 5, 1, 16, 16, 1)):
        x = rng.derive(2, trial).normal((n, 8), stddev=2.0)
        y = (np.asarray(rng.derive(3, trial).integers(0, 4, size=n)) if loss == "softmax_ce"
             else rng.derive(3, trial).normal((n, 4)))
        assert_frozen_bits(spec, params, Batch(x, y))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.int64])
def test_integer_labels_of_every_width_are_the_frozen_bits(dtype):
    spec, params, rng = frozen_case()
    x = rng.derive(2).normal((16, 8), stddev=2.0)
    labels = np.asarray(rng.derive(3).integers(0, 4, size=16))
    assert_frozen_bits(spec, params, Batch(x, labels.astype(dtype)))
    for bad in ([4], [-1] if np.issubdtype(dtype, np.signedinteger) else [255]):
        wrong = labels.astype(dtype)
        wrong[7] = np.array(bad, dtype=dtype)[0]
        with pytest.raises(DomainError, match="labels must lie"):
            backward(spec, params, Batch(x, wrong))
        with pytest.raises(DomainError, match="labels must lie"):
            evaluate_loss(spec, params, Batch(x, wrong))


def test_non_integer_labels_rejected():
    spec, params, rng = frozen_case()
    x = rng.derive(2).normal((4, 8))
    for labels in (np.array([0.0, 1.0, 2.0, 3.0]), np.array([True, False, True, False])):
        with pytest.raises(DomainError, match="integer class labels"):
            backward(spec, params, Batch(x, labels))


def test_an_equal_spec_runs_the_same_bits():
    spec, params, rng = frozen_case()
    batch = Batch(rng.derive(2).normal((16, 8), stddev=2.0),
                  np.asarray(rng.derive(3).integers(0, 4, size=16)))
    loss, grads = backward(spec, params, batch)
    twin = MlpSpec(widths=spec.widths, activations=spec.activations, loss=spec.loss)
    assert twin == spec and twin is not spec
    assert twin.layer_names() == spec.layer_names()
    twin_loss, twin_grads = backward(twin, params, batch)
    assert twin_loss == loss
    assert all(twin_grads[name].tobytes() == grads[name].tobytes() for name in grads)
    assert_frozen_bits(twin, params, batch)


class TestBackwardOut:
    @staticmethod
    def case():
        spec, params, rng = frozen_case()
        batch = Batch(rng.derive(2).normal((16, 8)),
                      np.asarray(rng.derive(3).integers(0, 4, size=16)))
        out = {name: np.full_like(v, 7.0) for name, v in params.items()}
        return spec, params, batch, out

    @pytest.mark.parametrize("name", ["layer2.weight", "layer2.bias", "layer0.weight"])
    def test_missing_entry_is_domain_error_and_writes_nothing(self, name):
        spec, params, batch, out = self.case()
        del out[name]
        with pytest.raises(DomainError, match=name):
            backward(spec, params, batch, out=out)
        assert all((v == 7.0).all() for v in out.values())

    @pytest.mark.parametrize("name, shape", [
        ("layer0.weight", (16, 9)), ("layer0.bias", (15,)), ("layer1.weight", (16, 16, 1)),
    ])
    def test_misshaped_entry_is_domain_error_and_writes_nothing(self, name, shape):
        spec, params, batch, out = self.case()
        out[name] = np.full(shape, 7.0)
        with pytest.raises(DomainError, match=name):
            backward(spec, params, batch, out=out)
        assert all((v == 7.0).all() for v in out.values())

    def test_entry_of_another_dtype_is_domain_error_and_writes_nothing(self):
        spec, params, batch, out = self.case()
        out["layer0.bias"] = out["layer0.bias"].astype(np.float32)
        with pytest.raises(DomainError, match="dtype"):
            backward(spec, params, batch, out=out)
        assert all((v == 7.0).all() for v in out.values())


@pytest.mark.parametrize("loss", ["softmax_ce", "mse"])
def test_an_empty_batch_has_no_loss_but_a_forward(loss):
    spec, params, _ = frozen_case(loss=loss)
    x = np.zeros((0, 8))
    y = np.zeros(0, dtype=np.int64) if loss == "softmax_ce" else np.zeros((0, 4))
    with pytest.raises(DomainError, match="empty batch"):
        backward(spec, params, Batch(x, y))
    with pytest.raises(DomainError, match="empty batch"):
        evaluate_loss(spec, params, Batch(x, y))
    assert forward(spec, params, x).shape == (0, 4)


class TestFiniteDiffOracle:
    def test_rejects_nonpositive_step(self):
        spec, params, batch = random_net(0, (2, 2), (), "mse")
        with pytest.raises(DomainError):
            finite_diff_grad(spec, params, batch, h=0.0)

    def test_quadratic_loss_central_difference_nearly_exact(self):
        spec, params, batch = random_net(8, (3, 2), (), "mse")
        analytic = backward(spec, params, batch)[1]
        fd = finite_diff_grad(spec, params, batch, h=1e-4)
        # central differences are exact for quadratics up to rounding
        assert max_rel_err(analytic, fd) < 1e-9

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("loss", ["softmax_ce", "mse"])
    def test_gradcheck_all_combinations(self, activation, loss):
        for trial in range(20):
            spec, params, batch = random_net(
                1000 + 31 * trial + hash((activation, loss)) % 997,
                (3, 4, 2),
                (activation,),
                loss,
            )
            analytic = backward(spec, params, batch)[1]
            fd = finite_diff_grad(spec, params, batch, h=1e-6)
            assert max_rel_err(analytic, fd) < 1e-5, (activation, loss, trial)

    def test_evaluate_loss_matches_backward_loss(self):
        spec, params, batch = random_net(21, (4, 3, 2), ("tanh",), "softmax_ce")
        assert evaluate_loss(spec, params, batch) == backward(spec, params, batch)[0]
