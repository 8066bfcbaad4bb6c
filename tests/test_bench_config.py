import math
import re
from pathlib import Path

import numpy as np
import pytest

from projtune.baselines import Sgd
from projtune.bench.config import ExperimentConfig, load_config, parse_config_text
from projtune.bench.data import MAX_SCALE, DatasetSpec, generate_shift_dataset
from projtune.bench.run import model_spec_from_config
from projtune.errors import ConfigError
from projtune.model import MlpSpec

SAMPLE = """
# benchmark configuration
method = ftp
seed = 5
outdir = runs/demo
epochs = 100
batch_size = 20
lr = 0.05
momentum = 0.9
nesterov = true
k = 0.5
exclude_set = layer2.weight, layer2.bias
tpgm.inner_iters = 2
mars_sp.gamma = inf
l2_sp.lambda = 0.003
wise.ratio = 0.4
dataset.n_classes = 5
model.hidden = 12,8
model.activation = relu
"""


class TestParsing:
    def test_full_sample(self):
        cfg = parse_config_text(SAMPLE)
        assert cfg.method == "ftp"
        assert cfg.seed == 5
        assert cfg.nesterov is True
        assert cfg.k == 0.5
        assert cfg.exclude_set == ("layer2.weight", "layer2.bias")
        assert cfg.tpgm_inner_iters == 2
        assert math.isinf(cfg.mars_sp_gamma)
        assert cfg.l2_sp_lambda == 0.003
        assert cfg.wise_ratio == 0.4
        assert cfg.dataset_n_classes == 5
        assert cfg.model_hidden == (12, 8)
        assert cfg.model_activation == "relu"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_text("method = ft\nlearning_rate = 0.1\n")

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = soon\n")
        with pytest.raises(ConfigError):
            parse_config_text("nesterov = maybe\n")
        with pytest.raises(ConfigError):
            parse_config_text("model.hidden = a,b\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("method = dropout\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("\n# comment\nseed = 9  # trailing\n\n")
        assert cfg.seed == 9

    def test_exclude_set_star(self):
        cfg = parse_config_text("exclude_set = *\n")
        assert cfg.exclude_set == ("*",)

    # one bad value for each field annotation: bool, int, float, str, tuple[str, ...],
    # tuple[int, ...] and Optional[float]
    @pytest.mark.parametrize("key, value", [
        ("nesterov", "maybe"), ("dataset.n_train", "x"), ("dataset.cluster_spread", "1.5.0"),
        ("model.activation", "sigmoid"), ("exclude_set", "layer9.weight"),
        ("model.hidden", "16,,16"), ("wise.ratio", "x"),
    ])
    def test_a_bad_value_of_each_type_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            parse_config_text(f"{key} = {value}\n")

    def test_empty_and_none_values(self):
        cfg = parse_config_text("exclude_set = none\nmodel.hidden =\nwise.ratio = none\n")
        assert (cfg.exclude_set, cfg.model_hidden, cfg.wise_ratio) == ((), (), None)
        # a blank name is dropped, a blank width is an error
        cfg = parse_config_text("exclude_set = layer0.weight, ,layer2.bias\n")
        assert cfg.exclude_set == ("layer0.weight", "layer2.bias")
        with pytest.raises(ConfigError, match="^model.hidden: "):
            parse_config_text("model.hidden = 16,\n")

    def test_wise_ratio_none_and_range(self):
        assert parse_config_text("wise.ratio = none\n").wise_ratio is None
        with pytest.raises(ConfigError):
            parse_config_text("wise.ratio = 1.5\n")

    def test_overrides_win(self):
        cfg = parse_config_text("seed = 1\n", overrides={"seed": "42", "method": "tpgm"})
        assert cfg.seed == 42
        assert cfg.method == "tpgm"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(SAMPLE, encoding="utf-8")
        assert load_config(path).seed == 5

    def test_roundtrip_through_to_dict(self):
        cfg = parse_config_text(SAMPLE)
        echo = cfg.to_dict()
        rebuilt = parse_config_text(
            "\n".join(
                f"{k} = {','.join(str(x) for x in v) if isinstance(v, list) else ('none' if v is None else v)}"
                for k, v in echo.items()
            )
        )
        assert rebuilt == cfg


class TestSchedule:
    def test_iteration_arithmetic(self):
        cfg = ExperimentConfig(epochs=10, batch_size=16)
        assert cfg.iters_per_epoch(40) == 3
        assert cfg.total_iters(40) == 30
        assert cfg.iters_per_epoch(16) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(epochs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(checkpoint_every=-1)

    # one wrongly typed value per kind of field annotation, as a library caller passes it
    @pytest.mark.parametrize("key, value", [
        ("nesterov", "yes"), ("epochs", "5"), ("epochs", 5.0), ("epochs", True), ("lr", "0.1"),
        ("method", 3), ("exclude_set", ["layer0.weight"]), ("model.hidden", (16, "16")),
        ("wise.ratio", "0.5"),
    ])
    def test_a_wrongly_typed_value_is_config_error_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected"):
            ExperimentConfig(**{key.replace(".", "_"): value})

    def test_an_int_fits_a_float_key(self):
        assert ExperimentConfig(lr=1, wise_ratio=0).lr == 1

    def test_negative_seed_rejected_at_load(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = -1\n")

    @pytest.mark.parametrize("method", ["ft", "hyper-sgd"])
    @pytest.mark.parametrize("key, value", [
        ("hyper.alpha0", "inf"), ("hyper.alpha0", "nan"), ("hyper.alpha0", "0"),
        ("hyper.alpha0", "-1"), ("hyper.kappa", "nan"), ("hyper.kappa", "inf"),
        ("hyper.kappa", "-5"),
    ])
    def test_bad_hyper_value_rejected_at_load(self, method, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"method = {method}\n{key} = {value}\n")


class TestHyperSgdBaseKeys:
    # hyper-sgd learns its own rate, so a base optimizer key it would ignore is an error
    @pytest.mark.parametrize("key, value", [
        ("base", "adamw"), ("lr", "0.01"), ("momentum", "0"), ("weight_decay", "0.1"),
        ("nesterov", "true"),
    ])
    def test_each_non_default_key_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"method = hyper-sgd\n{key} = {value}\n")
        assert getattr(parse_config_text(f"method = ftp\n{key} = {value}\n"), key) != \
            getattr(ExperimentConfig(), key)

    def test_defaults_accepted_when_written(self):
        cfg = parse_config_text("method = hyper-sgd\nbase = sgd\nlr = 0.08\nmomentum = 0.9\n"
                                "weight_decay = 0\nnesterov = false\n")
        assert (cfg.base, cfg.lr, cfg.momentum) == ("sgd", 0.08, 0.9)


class TestAdamWBaseKeys:
    # AdamW has no momentum, so a momentum key it would ignore is an error
    @pytest.mark.parametrize("key, value", [("momentum", "0.5"), ("momentum", "0"),
                                            ("nesterov", "true")])
    def test_each_non_default_key_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"base adamw ignores \['{key}'\]"):
            parse_config_text(f"method = ftp\nbase = adamw\n{key} = {value}\n")

    def test_defaults_accepted_when_written(self):
        cfg = parse_config_text("base = adamw\nlr = 0.01\nmomentum = 0.9\nnesterov = false\n")
        assert (cfg.base, cfg.momentum, cfg.nesterov) == ("adamw", 0.9, False)


class TestWhatARunBuilds:
    def test_dataset_spec_takes_every_dataset_key(self):
        cfg = parse_config_text("dataset.n_train = 300\ndataset.mean_radius = 2.5\n")
        spec = cfg.dataset_spec()
        assert (spec.n_train, spec.n_test, spec.mean_radius) == (300, 2000, 2.5)
        assert spec.n_features == cfg.dataset_n_features == 8  # not the DatasetSpec default

    def test_model_spec(self):
        cfg = parse_config_text("model.hidden = 12,8\nmodel.activation = relu\n"
                                "dataset.n_classes = 5\n")
        assert cfg.model_spec() == MlpSpec(widths=(8, 12, 8, 5), activations=("relu", "relu"))
        assert model_spec_from_config(cfg) == cfg.model_spec()

    def test_anchor_path(self):
        assert ExperimentConfig(outdir="o").anchor_path() == Path("o") / "pretrain.ckpt"
        assert ExperimentConfig(outdir="o", pretrain_path="a.ckpt").anchor_path() == Path("a.ckpt")


class TestOwnerErrorsNameTheKeyAtFault:
    # each case's last key is the one at fault; the others are changed and valid
    @pytest.mark.parametrize("case", [
        "dataset.n_train=600 dataset.n_test=200 dataset.cluster_spread=0",
        "dataset.n_train=600 dataset.mean_radius=-1",
        "dataset.mean_radius=2 dataset.nuisance_scale=-0.5",
        "dataset.n_classes=5 dataset.n_test=4",
        "dataset.n_features=6 model.hidden=8 model.activation=sigmoid",
        "dataset.n_classes=3 model.hidden=8,0",
        "momentum=0.5 weight_decay=0.1 lr=-1",
        "lr=0.5 momentum=-1", "lr=0.5 weight_decay=-1", "lr=0.5 momentum=0 nesterov=true",
        "lr=0.5 base=sgdd", "lr=0.5 pretrain.lr=0", "method=ftp lr=0.5 k=2",
        "lr=0.5 exclude_set=layer9.weight",
    ])
    def test_only_the_key_at_fault_is_named(self, case):
        *valid, fault = [pair.split("=") for pair in case.split()]
        with pytest.raises(ConfigError) as err:
            parse_config_text("\n".join(f"{k} = {v}" for k, v in [*valid, fault]))
        assert str(err.value).startswith(f"{fault[0]}: ")

    def test_an_owner_used_alone_names_its_own_field(self):
        with pytest.raises(ConfigError, match=r"^cluster_spread: must be positive"):
            DatasetSpec(cluster_spread=0.0)
        with pytest.raises(ConfigError, match=r"^lr: must be positive"):
            Sgd(-1.0)


class TestDatasetScalesKeepInputsFinite:
    @pytest.mark.parametrize("key", ["dataset.cluster_spread", "dataset.nuisance_scale",
                                     "dataset.mean_radius"])
    @pytest.mark.parametrize("value", ["1e308", "-1e308", "3e306"])
    def test_a_scale_whose_inputs_overflow_is_rejected_at_load(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: must be "):
            parse_config_text(f"{key} = {value}\n")

    def test_the_largest_accepted_scales_give_finite_inputs(self):
        spec = DatasetSpec(n_train=400, n_test=200, cluster_spread=MAX_SCALE,
                           nuisance_scale=MAX_SCALE, mean_radius=MAX_SCALE)
        data = generate_shift_dataset(spec, 3)
        for split in (data.train, data.test, *data.ood.values()):
            assert np.isfinite(split.inputs).all()
