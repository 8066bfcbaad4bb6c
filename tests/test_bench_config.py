import math

import pytest

from projtune.bench.config import ExperimentConfig, load_config, parse_config_text
from projtune.errors import ConfigError

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
