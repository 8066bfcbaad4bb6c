import numpy as np
import pytest

from projtune.bench import run as run_module
from projtune.bench.checkpoint import load_checkpoint
from projtune.bench.config import METHODS, ExperimentConfig
from projtune.bench.data import DatasetSpec, generate_shift_dataset
from projtune.bench.run import (
    CountingModel,
    accuracy,
    evaluate,
    model_spec_from_config,
    pretrain,
    run_experiment,
)
from projtune.errors import DomainError, RunError
from projtune.model import MlpSpec, init_params
from projtune.numerics import SeededRng


def tiny_config(tmp_path, tag, **kw):
    """Small, fast experiment; ~1s budget across this module's tests."""
    defaults = dict(
        method="ft",
        seed=0,
        outdir=str(tmp_path / tag),
        epochs=10,
        batch_size=16,
        pretrain_epochs=2,
        dataset_n_train=600,
        dataset_n_test=200,
        pretrain_path=str(tmp_path / "shared-pretrain.ckpt"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def strip_wallclock(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        del cells[2]  # secs_per_iter
        lines.append(",".join(cells))
    return "\n".join(lines)


class TestEvaluate:
    def test_constant_model_is_chance_level(self):
        ds = generate_shift_dataset(DatasetSpec(n_train=400, n_test=400, n_features=4), 0)
        spec = MlpSpec(widths=(4, 4), loss="softmax_ce")
        params = {"layer0.weight": np.zeros((4, 4)), "layer0.bias": np.zeros(4)}
        table = evaluate(spec, params, ds)
        for key, acc in table.items():
            assert acc == pytest.approx(0.25, abs=0.01), key

    def test_evaluation_is_deterministic(self):
        ds = generate_shift_dataset(DatasetSpec(n_train=400, n_test=200, n_features=4), 1)
        spec = MlpSpec(widths=(4, 6, 4), activations=("tanh",), loss="softmax_ce")
        params = init_params(spec, SeededRng(3))
        assert evaluate(spec, params, ds) == evaluate(spec, params, ds)

    def test_memorizing_model_reaches_full_train_accuracy(self):
        from projtune.baselines import Sgd
        from projtune.bench.data import Split
        from projtune.model import Batch, backward

        rng = SeededRng(4)
        spec = MlpSpec(widths=(2, 16, 2), activations=("tanh",), loss="softmax_ce")
        params = init_params(spec, rng.derive(0))
        x = rng.derive(1).normal((10, 2))
        y = np.asarray(rng.derive(2).integers(0, 2, size=10))
        opt = Sgd(lr=0.5, momentum=0.9)
        for _ in range(300):
            _, grads = backward(spec, params, Batch(x, y))
            for name in params:
                params[name] = opt.step(name, params[name], grads[name])
        assert accuracy(spec, params, Split(x, y)) == 1.0

    def test_width_mismatch_rejected(self):
        ds = generate_shift_dataset(DatasetSpec(n_train=400, n_test=200, n_features=4), 2)
        spec = MlpSpec(widths=(4, 3), loss="softmax_ce")
        params = init_params(spec, SeededRng(0))
        with pytest.raises(DomainError):
            evaluate(spec, params, ds)

    def test_ood_average_is_mean_of_kind_means(self):
        ds = generate_shift_dataset(DatasetSpec(n_train=400, n_test=200, n_features=4), 5)
        spec = model_spec_from_config(
            ExperimentConfig(dataset_n_features=4, model_hidden=(6,))
        )
        params = init_params(spec, SeededRng(1))
        table = evaluate(spec, params, ds)
        kinds = ("rotation", "translation", "additive_noise", "feature_dropout")
        means = [np.mean([table[f"ood.{k}.{s}"] for s in range(1, 6)]) for k in kinds]
        assert table["ood_average"] == pytest.approx(float(np.mean(means)))


class TestPretrain:
    def test_pretrain_learns_the_clean_task(self, tmp_path):
        config = tiny_config(tmp_path, "pre", pretrain_epochs=4)
        ckpt = pretrain(config, path=tmp_path / "p.ckpt")
        ds = generate_shift_dataset(config.dataset_spec(), config.seed)
        spec = model_spec_from_config(config)
        assert accuracy(spec, ckpt.values, ds.test) > 0.85
        for name in ckpt.values:
            np.testing.assert_array_equal(ckpt.values[name], ckpt.anchors[name])

    def test_run_experiment_pretrains_when_missing(self, tmp_path):
        config = tiny_config(tmp_path, "auto")
        assert not (tmp_path / "shared-pretrain.ckpt").exists()
        run_experiment(config)
        assert (tmp_path / "shared-pretrain.ckpt").exists()

    def test_mismatched_pretrain_rejected(self, tmp_path):
        config_a = tiny_config(tmp_path, "a", model_hidden=(8,))
        pretrain(config_a, path=tmp_path / "shared-pretrain.ckpt")
        config_b = tiny_config(tmp_path, "b", model_hidden=(12,))
        with pytest.raises(RunError, match="different model"):
            run_experiment(config_b)


class TestDeterminism:
    def test_rerun_reproduces_metrics_excluding_wallclock(self, tmp_path):
        rec_a = run_experiment(tiny_config(tmp_path, "r1", method="ftp"))
        rec_b = run_experiment(tiny_config(tmp_path, "r2", method="ftp"))
        csv_a = (tmp_path / "r1" / "metrics.csv").read_text()
        csv_b = (tmp_path / "r2" / "metrics.csv").read_text()
        assert strip_wallclock(csv_a) == strip_wallclock(csv_b)
        assert rec_a.summary == rec_b.summary

    def test_different_seed_changes_losses(self, tmp_path):
        rec_a = run_experiment(tiny_config(tmp_path, "s0", seed=0))
        rec_b = run_experiment(
            tiny_config(tmp_path, "s1", seed=1,
                        pretrain_path=str(tmp_path / "other-pretrain.ckpt"))
        )
        assert rec_a.column("loss") != rec_b.column("loss")


class TestEquivalences:
    def test_ftp_exclude_all_matches_vanilla_ft(self, tmp_path):
        rec_ft = run_experiment(tiny_config(tmp_path, "ft", method="ft"))
        rec_ftp = run_experiment(
            tiny_config(tmp_path, "ftp", method="ftp", exclude_set=("*",))
        )
        assert rec_ft.column("loss") == rec_ftp.column("loss")
        a = load_checkpoint(tmp_path / "ft" / "state.ckpt")
        b = load_checkpoint(tmp_path / "ftp" / "state.ckpt")
        for name in a.values:
            np.testing.assert_array_equal(a.values[name], b.values[name])

    def test_mars_sp_unbounded_matches_vanilla_ft(self, tmp_path):
        rec_ft = run_experiment(tiny_config(tmp_path, "ft", method="ft"))
        rec_sp = run_experiment(
            tiny_config(tmp_path, "sp", method="mars-sp", mars_sp_gamma=float("inf"))
        )
        assert rec_ft.column("loss") == rec_sp.column("loss")
        a = load_checkpoint(tmp_path / "ft" / "state.ckpt")
        b = load_checkpoint(tmp_path / "sp" / "state.ckpt")
        for name in a.values:
            np.testing.assert_array_equal(a.values[name], b.values[name])

    def test_hyper_sgd_kappa_zero_matches_fixed_lr_sgd(self, tmp_path):
        rec_sgd = run_experiment(
            tiny_config(tmp_path, "sgd", method="ft", momentum=0.0, lr=0.02)
        )
        rec_hyper = run_experiment(
            tiny_config(tmp_path, "hyper", method="hyper-sgd",
                        hyper_alpha0=0.02, hyper_kappa=0.0)
        )
        assert rec_sgd.column("loss") == rec_hyper.column("loss")
        a = load_checkpoint(tmp_path / "sgd" / "state.ckpt")
        b = load_checkpoint(tmp_path / "hyper" / "state.ckpt")
        for name in a.values:
            np.testing.assert_array_equal(a.values[name], b.values[name])


class TestPassCounts:
    def test_ftp_one_backward_per_iteration(self, tmp_path):
        rec = run_experiment(tiny_config(tmp_path, "ftp", method="ftp"))
        bwd = rec.column("bwd_count")
        fwd = rec.column("fwd_count")
        assert bwd == list(range(1, len(bwd) + 1))
        assert fwd == bwd

    @pytest.mark.parametrize("inner", [1, 2])
    def test_tpgm_backward_count_law(self, tmp_path, inner):
        rec = run_experiment(
            tiny_config(tmp_path, f"tpgm{inner}", method="tpgm", tpgm_inner_iters=inner)
        )
        bwd = rec.column("bwd_count")
        assert bwd == [(1 + inner) * t for t in range(1, len(bwd) + 1)]
        assert rec.column("fwd_count") == bwd

    def test_constraint_hook_in_summary(self, tmp_path):
        for method in ("ftp", "mars-sp", "tpgm"):
            rec = run_experiment(tiny_config(tmp_path, f"hook-{method}", method=method))
            assert rec.summary["constraint_max_excess"] <= 1e-9
        rec = run_experiment(tiny_config(tmp_path, "hook-ft", method="ft"))
        assert "constraint_max_excess" not in rec.summary

    def test_gamma_moves_smoothly_on_benchmark_run(self, tmp_path):
        # constraint radii change by at most 2*mu per step in practice (the
        # 40*mu worst case is asserted at the unit level)
        rec = run_experiment(tiny_config(tmp_path, "smooth", method="ftp", epochs=60))
        gammas = np.array(rec.gamma_matrix())
        steps = np.abs(np.diff(gammas, axis=0))
        mu = 1e-2
        assert steps.max() <= 2 * mu
        assert np.abs(gammas[0] - 1e-8).max() <= 2 * mu  # first update off the init


class TestMethods:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_completes(self, tmp_path, method):
        rec = run_experiment(tiny_config(tmp_path, method, method=method, epochs=4))
        assert len(rec.rows) == rec.summary["iterations"]
        assert 0.0 <= rec.summary["id"] <= 1.0
        assert 0.0 <= rec.summary["ood_average"] <= 1.0

    def test_linear_probe_only_moves_head(self, tmp_path):
        config = tiny_config(tmp_path, "lp", method="linear-probe")
        run_experiment(config)
        pre = load_checkpoint(tmp_path / "shared-pretrain.ckpt")
        post = load_checkpoint(tmp_path / "lp" / "state.ckpt")
        spec = model_spec_from_config(config)
        last = spec.n_layers - 1
        for name in pre.values:
            if name.startswith(f"layer{last}."):
                assert np.abs(post.values[name] - pre.values[name]).max() > 0
            else:
                np.testing.assert_array_equal(post.values[name], pre.values[name])

    def test_the_method_table_covers_every_configurable_method(self):
        assert set(run_module._METHODS) == set(METHODS)

    @pytest.mark.parametrize("method, expected", [
        ("l2-sp", lambda total, tensors: (total * tensors, 0, total)),
        ("linear-probe", lambda total, tensors: (0, total, total)),
        ("lp-ft", lambda total, tensors: (0, total // 2, total)),
        # a training batch and tpgm.inner_iters = 2 validation batches per iteration
        ("tpgm", lambda total, tensors: (0, 0, 3 * total)),
        ("ft", lambda total, tensors: (0, 0, total)),
    ], ids=["l2-sp", "linear-probe", "lp-ft", "tpgm", "ft"])
    def test_traced_call_sites_are_reached_through_the_module(self, tmp_path, monkeypatch,
                                                             method, expected):
        # perfbench traces these three by replacing bench.run's globals
        names = ("l2_sp_grad", "freeze_mask", "draw_batch")
        calls = dict.fromkeys(names, 0)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        config = tiny_config(tmp_path, method, method=method, epochs=3, tpgm_inner_iters=2)
        pretrain(config, path=tmp_path / "shared-pretrain.ckpt")  # its draws are not counted
        for name in names:
            monkeypatch.setattr(run_module, name, counting(name, getattr(run_module, name)))
        rec = run_experiment(config)
        total = rec.summary["iterations"]
        assert total % 2 == 1 or method == "tpgm"  # so that lp-ft's boundary rounds down
        tensors = 2 * model_spec_from_config(config).n_layers  # a weight and a bias each
        assert tuple(calls[name] for name in names) == expected(total, tensors)

    def test_wise_ratio_adds_summary_entries(self, tmp_path):
        rec = run_experiment(tiny_config(tmp_path, "wise", method="ft", wise_ratio=0.5))
        assert "wise.id" in rec.summary and "wise.ood_average" in rec.summary

    def test_divergence_raises_run_error_with_diagnostic_row(self, tmp_path):
        # decay feedback at an absurd learning rate multiplies the weights
        # each step until they overflow, which poisons the loss; ftp projects
        # only the biases, so its weights overflow the same way
        for method, n_gammas in (("ft", 0), ("ftp", 3)):
            config = tiny_config(tmp_path, f"boom-{method}", method=method, epochs=20,
                                 lr=1e9, weight_decay=1.0, momentum=0.0,
                                 exclude_set=("layer0.weight", "layer1.weight", "layer2.weight"))
            with np.errstate(all="ignore"), pytest.raises(RunError, match="diverged"):
                run_experiment(config)
            rows = (tmp_path / f"boom-{method}" / "metrics.csv").read_text().splitlines()
            header, before, last = (line.split(",") for line in rows[:1] + rows[-2:])
            assert "nan" in last[1] or "inf" in last[1]
            # the loss is checked before the step, so the radii are those of
            # the step before, not ones a non-finite gradient corrupted
            gamma_cols = [i for i, col in enumerate(header) if col.startswith("gamma.")]
            assert len(gamma_cols) == n_gammas
            assert [last[i] for i in gamma_cols] == [before[i] for i in gamma_cols]


def assert_same_checkpoint(a, b):
    """Every numeric and bookkeeping field of two checkpoints, arrays bit for bit."""
    assert a.iteration == b.iteration
    assert a.gammas == b.gammas
    assert a.rng == b.rng and a.extra == b.extra
    for group in ("values", "anchors", "prev_unconstrained"):
        x, y = getattr(a, group), getattr(b, group)
        assert x.keys() == y.keys(), group
        for name in x:
            assert x[name].tobytes() == y[name].tobytes(), (group, name)
    meta_a = {k: v for k, v in a.optimizer.items() if k != "tensors"}
    meta_b = {k: v for k, v in b.optimizer.items() if k != "tensors"}
    assert meta_a == meta_b
    ta, tb = a.optimizer["tensors"], b.optimizer["tensors"]
    assert ta.keys() == tb.keys()
    for key in ta:
        assert ta[key].tobytes() == tb[key].tobytes(), key


class TestResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        for method in METHODS:
            # hyper-sgd takes no base optimizer keys
            for base in ("sgd",) if method == "hyper-sgd" else ("sgd", "adamw"):
                tag = f"{method}-{base}"
                kw = dict(method=method, base=base, epochs=8)
                if base == "adamw":
                    kw["lr"] = 0.01
                run_experiment(tiny_config(tmp_path, f"{tag}-full", checkpoint_every=0, **kw))
                half_cfg = tiny_config(tmp_path, f"{tag}-half", checkpoint_every=1, **kw)
                half_total = half_cfg.total_iters(half_cfg.finetune_n)
                run_experiment(half_cfg)
                mid = tmp_path / f"{tag}-half" / f"ckpt_iter{half_total // 2}.ckpt"
                assert mid.exists()
                run_experiment(tiny_config(tmp_path, f"{tag}-resumed", **kw), resume=mid)
                a = load_checkpoint(tmp_path / f"{tag}-full" / "state.ckpt")
                b = load_checkpoint(tmp_path / f"{tag}-resumed" / "state.ckpt")
                assert_same_checkpoint(a, b)

    def test_resumed_run_draws_the_uninterrupted_batches(self, tmp_path, monkeypatch):
        drawn = []
        original = run_module.draw_batch

        def recording(rng, split, batch_size):
            batch = original(rng, split, batch_size)
            drawn.append((batch.inputs.tobytes(), batch.targets.tobytes()))
            return batch

        monkeypatch.setattr(run_module, "draw_batch", recording)
        # TPGM draws a training batch and two validation batches per iteration
        kw = dict(method="tpgm", tpgm_inner_iters=2, epochs=4)
        run_experiment(tiny_config(tmp_path, "full", checkpoint_every=5, **kw))
        full, drawn[:] = list(drawn), []
        run_experiment(tiny_config(tmp_path, "resumed", **kw),
                       resume=tmp_path / "full" / "ckpt_iter5.ckpt")
        assert len(full) > len(drawn) > 0
        assert drawn == full[-len(drawn):]

    @pytest.mark.parametrize("change", [
        {"method": "mars-sp"}, {"seed": 1}, {"base": "adamw"}, {"method": "hyper-sgd"},
        {"exclude_set": ("layer0.weight",)},
    ], ids=["method", "seed", "base", "optimizer-kind", "exclude-set"])
    def test_mismatched_resume_is_run_error(self, tmp_path, change):
        run_experiment(tiny_config(tmp_path, "src", method="ftp", epochs=2, checkpoint_every=5))
        mid = tmp_path / "src" / "ckpt_iter5.ckpt"
        config = tiny_config(tmp_path, "resumed", **{"method": "ftp", "epochs": 2, **change})
        with pytest.raises(RunError, match="resume checkpoint"):
            run_experiment(config, resume=mid)

    @pytest.mark.parametrize("epochs", [2, 5], ids=["past-the-end", "at-the-end"])
    def test_resume_at_or_past_the_run_end_is_run_error_and_writes_nothing(self, tmp_path,
                                                                          epochs):
        # 3 iterations per epoch: 18 in the source run, 6 or 15 in the resumed one
        run_experiment(tiny_config(tmp_path, "src", method="ftp", epochs=6, checkpoint_every=5))
        src = tmp_path / "src"
        before = {path.name: path.read_bytes() for path in src.iterdir()}
        for outdir in ("src", "fresh"):
            # no shared anchor: a run that went on would pretrain into its outdir
            config = tiny_config(tmp_path, outdir, method="ftp", epochs=epochs,
                                 pretrain_path="")
            with pytest.raises(RunError, match="iteration 15"):
                run_experiment(config, resume=src / "ckpt_iter15.ckpt")
        assert {path.name: path.read_bytes() for path in src.iterdir()} == before
        assert not (tmp_path / "fresh").exists()

    def test_missing_resume_checkpoint_rejected(self, tmp_path):
        config = tiny_config(tmp_path, "gone")
        with pytest.raises(RunError, match="not found"):
            run_experiment(config, resume=tmp_path / "nope.ckpt")


class TestCountingModel:
    def test_counts_increment_together(self):
        spec = MlpSpec(widths=(3, 2), loss="mse")
        counting = CountingModel(spec)
        params = init_params(spec, SeededRng(0))
        from projtune.model import Batch

        batch = Batch(SeededRng(1).normal((4, 3)), SeededRng(2).normal((4, 2)))
        counting.loss_and_grads(params, batch)
        counting.loss_and_grads(params, batch)
        assert counting.fwd_count == counting.bwd_count == 2
