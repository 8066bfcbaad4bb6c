import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projtune.bench import cli
from projtune.bench.cli import main
from projtune.bench.config import METHODS, ExperimentConfig, parse_config_text
from projtune.errors import ConfigError

BASE_CONF = """
method = ft
epochs = 6
batch_size = 16
pretrain.epochs = 2
dataset.n_train = 600
dataset.n_test = 200
"""


@pytest.fixture
def conf_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(BASE_CONF, encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def finished_run(tmp_path, conf_file):
    outdir = tmp_path / "done"
    run_cli("finetune", "--config", conf_file, "--set", f"outdir={outdir}",
            "--set", "method=ftp")
    return outdir


@pytest.mark.parametrize("case", ["missing-config", "pretrain-path-is-a-directory",
                                  "outdir-under-a-file", "sweep-outdir-under-a-file",
                                  "evaluate-out-in-missing-directory",
                                  "audit-out-in-missing-directory"])
def test_a_file_system_error_is_clean_error(case, tmp_path, conf_file, request, capsys):
    a_file, missing = tmp_path / "a-file", tmp_path / "missing"
    a_file.write_text("", encoding="utf-8")
    finetune = ["finetune", "--config", conf_file, "--set", f"outdir={tmp_path / 'run'}"]
    argv = {
        "missing-config": lambda: ["finetune", "--config", missing / "exp.conf"],
        "pretrain-path-is-a-directory": lambda: [*finetune, "--set", f"pretrain.path={tmp_path}"],
        "outdir-under-a-file": lambda: [*finetune, "--set", f"outdir={a_file / 'sub'}"],
        "sweep-outdir-under-a-file": lambda: ["sweep", "--config", conf_file, "--methods", "ft",
                                              "--seeds", "0", "--outdir", a_file / "s"],
        "evaluate-out-in-missing-directory": lambda: [
            "evaluate", "--config", conf_file, "--out", missing / "table.json",
            "--checkpoint", request.getfixturevalue("finished_run") / "state.ckpt"],
        "audit-out-in-missing-directory": lambda: [
            "audit", "--pairs", 50, "--out", missing / "audit.json",
            "--checkpoint", request.getfixturevalue("finished_run") / "state.ckpt"],
    }[case]()
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno ")


def test_the_parser_is_built_once_and_every_call_parses_afresh(tmp_path, conf_file,
                                                              monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen, load_config = [], cli.load_config

    def recording_load_config(path, overrides):
        seen.append(overrides)
        return load_config(path, overrides=overrides)

    monkeypatch.setattr(cli, "load_config", recording_load_config)
    with pytest.raises(SystemExit) as exc:
        run_cli("pretrain", "--config", conf_file, "--no-such-flag")
    assert exc.value.code == 2
    assert run_cli("pretrain", "--config", conf_file, "--set", f"outdir={tmp_path / 'a'}") == 0
    assert run_cli("pretrain", "--config", conf_file, "--set", f"outdir={tmp_path / 'b'}",
                   "--set", f"pretrain.path={tmp_path / 'b.ckpt'}") == 0
    assert run_cli("pretrain", "--config", conf_file, "--set", f"outdir={tmp_path / 'c'}") == 0
    assert seen == [{"outdir": str(tmp_path / "a")},
                    {"outdir": str(tmp_path / "b"), "pretrain.path": str(tmp_path / "b.ckpt")},
                    {"outdir": str(tmp_path / "c")}]
    for name in ("a/pretrain.ckpt", "b.ckpt", "c/pretrain.ckpt"):
        assert (tmp_path / name).exists(), name


class TestPretrainFinetune:
    def test_pretrain_then_finetune(self, tmp_path, conf_file, capsys):
        outdir = tmp_path / "run"
        assert run_cli("pretrain", "--config", conf_file, "--set", f"outdir={outdir}") == 0
        assert (outdir / "pretrain.ckpt").exists()
        assert run_cli("finetune", "--config", conf_file, "--set", f"outdir={outdir}",
                       "--set", "method=ftp") == 0
        out = capsys.readouterr().out
        assert "method=ftp" in out
        assert (outdir / "metrics.csv").exists()
        assert (outdir / "metrics.json").exists()
        assert (outdir / "summary.json").exists()
        assert (outdir / "state.ckpt").exists()

    def test_bad_config_key_is_clean_error(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("not_a_key = 1\n", encoding="utf-8")
        assert run_cli("finetune", "--config", conf) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_resume_flag(self, tmp_path, conf_file):
        outdir = tmp_path / "resumable"
        assert run_cli("finetune", "--config", conf_file,
                       "--set", f"outdir={outdir}", "--set", "checkpoint_every=3") == 0
        mid = next(outdir.glob("ckpt_iter*.ckpt"))
        outdir2 = tmp_path / "resumed"
        assert run_cli("finetune", "--config", conf_file,
                       "--set", f"outdir={outdir2}",
                       "--set", f"pretrain.path={outdir / 'pretrain.ckpt'}",
                       "--resume", mid) == 0

    def test_mismatched_resume_is_clean_error(self, tmp_path, conf_file, capsys):
        outdir = tmp_path / "resumable"
        assert run_cli("finetune", "--config", conf_file,
                       "--set", f"outdir={outdir}", "--set", "checkpoint_every=3") == 0
        mid = next(outdir.glob("ckpt_iter*.ckpt"))
        capsys.readouterr()
        assert run_cli("finetune", "--config", conf_file,
                       "--set", f"outdir={tmp_path / 'resumed'}", "--set", "base=adamw",
                       "--set", f"pretrain.path={outdir / 'pretrain.ckpt'}",
                       "--resume", mid) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: resume checkpoint")

    def test_non_finite_hyper_kappa_is_clean_error_before_any_run(self, tmp_path, conf_file,
                                                                 capsys):
        outdir = tmp_path / "hyper"
        assert run_cli("finetune", "--config", conf_file, "--set", f"outdir={outdir}",
                       "--set", "method=hyper-sgd", "--set", "hyper.kappa=nan") == 2
        assert "hyper.kappa" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("method, key, value", [
        ("ft", "lr", "inf"), ("ft", "momentum", "nan"), ("ft", "weight_decay", "nan"),
        ("ft", "pretrain.lr", "inf"), ("ft", "dataset.cluster_spread", "inf"),
        ("ftp", "k", "nan"), ("mars-sp", "mars_sp.gamma", "nan"), ("l2-sp", "l2_sp.lambda", "nan"),
    ])
    def test_a_non_finite_float_is_clean_error_before_any_run(self, tmp_path, conf_file, method,
                                                              key, value, capsys):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"method = {method}\n{key} = {value}\n")
        outdir = tmp_path / "run"
        assert run_cli("finetune", "--config", conf_file, "--set", f"outdir={outdir}",
                       "--set", f"method={method}", "--set", f"{key}={value}") == 2
        assert key in capsys.readouterr().err
        assert not (outdir / "pretrain.ckpt").exists()

    # each case's last key is the one out of range; at load, before any work
    @pytest.mark.parametrize("case", [
        "method=ftp k=2", "method=mars-sp mars_sp.gamma=-1", "method=l2-sp l2_sp.lambda=-1",
        "method=tpgm tpgm.inner_iters=-1", "momentum=-1", "base=sgdd", "lr=-1",
        "pretrain.lr=0", "pretrain.epochs=-1", "dataset.n_classes=1",
        "model.activation=sigmoid", "method=ftp exclude_set=layer9.weight",
        "base=adamw nesterov=true", "base=adamw momentum=0.5", "finetune.skew=7",
        "finetune.skew=0", "finetune.n=2", "dataset.n_classes=5 finetune.n=4",
        "dataset.cluster_spread=1e308", "dataset.nuisance_scale=1e308",
    ])
    def test_a_key_out_of_range_is_clean_error_before_any_run(self, tmp_path, conf_file, case,
                                                              capsys):
        pairs = case.split()
        key = pairs[-1].split("=")[0]
        with pytest.raises(ConfigError, match=rf"(^|\W){re.escape(key)}\b"):
            parse_config_text("\n".join(pairs))
        outdir = tmp_path / "run"
        argv = [arg for pair in pairs for arg in ("--set", pair)]
        assert run_cli("finetune", "--config", conf_file, "--set", f"outdir={outdir}", *argv) == 2
        assert key in capsys.readouterr().err
        assert not (outdir / "pretrain.ckpt").exists()


@pytest.mark.parametrize("command", ["evaluate", "audit"])
def test_out_in_missing_directory_fails_before_any_work(command, tmp_path, conf_file,
                                                        monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the command started its work before it checked --out")

    for name in ("load_config", "load_checkpoint", "generate_shift_dataset", "evaluate",
                 "verify_lemma1_bound"):
        monkeypatch.setattr(cli, name, never)
    argv = [command, "--checkpoint", tmp_path / "state.ckpt",
            "--out", tmp_path / "missing" / "out.json"]
    if command == "evaluate":
        argv += ["--config", conf_file]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] no such directory")


KEYS = tuple(ExperimentConfig().to_dict())
# keys that set how much a run computes or where it writes; the runs below leave them alone
WORK_KEYS = {"outdir", "pretrain.path", "epochs", "batch_size", "checkpoint_every",
             "tpgm.inner_iters", "pretrain.epochs", "finetune.n", "dataset.n_train",
             "dataset.n_test", "dataset.n_features", "dataset.n_classes", "model.hidden"}
ADVERSARIAL = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "1e308", "-1e308", "", "none", "*",
                     "a,b", "true", "adamw", "layer0.weight", *METHODS]),
    st.integers(min_value=-10**40, max_value=10**40).map(str),
    st.text(st.characters(min_codepoint=0x80, max_codepoint=0x2fff), max_size=8),
)
TINY_CONF = ("epochs = 1\npretrain.epochs = 1\ndataset.n_train = 200\ndataset.n_test = 100\n"
             "model.hidden = 4\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KEYS), ADVERSARIAL), max_size=3))
def test_adversarial_config_input_is_a_config_or_a_clean_error(pairs):
    for load in (lambda: parse_config_text("\n".join(f"{k} = {v}" for k, v in pairs)),
                 lambda: parse_config_text(TINY_CONF, overrides=dict(pairs))):
        try:
            assert isinstance(load(), ExperimentConfig)
        except ConfigError:
            pass
    argv = [arg for k, v in pairs if k not in WORK_KEYS for arg in ("--set", f"{k}={v}")]
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "tiny.conf"
        conf.write_text(TINY_CONF, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["finetune", "--config", str(conf), "--set", f"outdir={tmp}/run", *argv])
    assert code in (0, 2)


def quiet_exit_code(argv) -> int:
    """``main(argv)``'s exit code, argparse's usage errors included, with its output hidden."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def tiny_ft_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    conf = root / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    assert quiet_exit_code(["finetune", "--config", str(conf), "--set", f"outdir={root}"]) == 0
    return conf, root / "state.ckpt"


# argument text that is no integer, or an integer of at most 3000
ODD_TEXT = st.one_of(st.sampled_from(["", "1.5", "1e3", "0x10", "nan", " 7", "-0", "+3"]),
                     st.text(st.characters(exclude_categories=("Nd",)), max_size=6))


def integer_text(max_value):
    return st.one_of(st.integers(min_value=-10**40, max_value=max_value).map(str), ODD_TEXT)


# --pairs stays at a few thousand, so no draw allocates much
@settings(max_examples=60, deadline=None)
@given(pairs=integer_text(3000), seed=integer_text(10**40))
def test_adversarial_audit_arguments_exit_cleanly(tiny_ft_checkpoint, pairs, seed):
    _, ckpt = tiny_ft_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        code = quiet_exit_code(["audit", "--checkpoint", str(ckpt), f"--pairs={pairs}",
                                f"--seed={seed}", "--out", f"{tmp}/audit.json"])
    assert code in (0, 1, 2)


@settings(max_examples=25, deadline=None)
@given(seeds=st.one_of(st.lists(integer_text(10**40), max_size=2).map(",".join),
                      integer_text(10**40)))
def test_adversarial_sweep_seeds_exit_cleanly(tiny_ft_checkpoint, seeds):
    conf, _ = tiny_ft_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        code = quiet_exit_code(["sweep", "--config", str(conf), "--methods", "ft",
                                f"--seeds={seeds}", "--outdir", f"{tmp}/sweep"])
    assert code in (0, 2)


class TestEvaluateAudit:
    def test_evaluate_checkpoint(self, tmp_path, conf_file, finished_run, capsys):
        out = tmp_path / "table.json"
        code = run_cli("evaluate", "--config", conf_file,
                       "--checkpoint", finished_run / "state.ckpt", "--out", out)
        assert code == 0
        table = json.loads(out.read_text())
        assert "id" in table and "ood_average" in table
        assert "ood.rotation.3" in table

    def test_audit_checkpoint(self, tmp_path, finished_run, capsys):
        out = tmp_path / "audit.json"
        code = run_cli("audit", "--checkpoint", finished_run / "state.ckpt",
                       "--pairs", 500, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bound_satisfied"] is True
        assert report["n_pairs"] >= 1
        assert len(report["layers"]) == 3  # two hidden layers + head
        assert "bound_satisfied=True" in capsys.readouterr().out

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_audit_pairs_below_one_is_clean_error(self, finished_run, pairs, capsys):
        capsys.readouterr()
        assert run_cli("audit", "--checkpoint", finished_run / "state.ckpt",
                       "--pairs", pairs) == 2
        assert capsys.readouterr().err.startswith("error: --pairs must be at least 1")

    def test_evaluate_class_count_mismatch_is_clean_error(self, conf_file, finished_run,
                                                          capsys):
        capsys.readouterr()
        assert run_cli("evaluate", "--config", conf_file, "--set", "dataset.n_classes=5",
                       "--checkpoint", finished_run / "state.ckpt") == 2
        assert capsys.readouterr().err.startswith("error: model output width 4")

    def test_audit_negative_seed_is_clean_error_before_the_checkpoint_loads(
            self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("audit loaded the checkpoint before it checked --seed")

        monkeypatch.setattr(cli, "load_checkpoint", never)
        assert run_cli("audit", "--checkpoint", tmp_path / "state.ckpt", "--seed", -1) == 2
        assert capsys.readouterr().err.startswith("error: --seed must be at least 0")

    def test_audit_of_more_pairs_than_memory_holds_is_clean_error(self, tmp_path, conf_file,
                                                                 capsys):
        outdir = tmp_path / "ft"
        assert run_cli("finetune", "--config", conf_file, "--set", f"outdir={outdir}") == 0
        out = tmp_path / "audit.json"
        capsys.readouterr()
        # numpy refuses the 57 PiB pair array before it touches any memory
        assert run_cli("audit", "--checkpoint", outdir / "state.ckpt",
                       "--pairs", 10**15, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_audit_missing_checkpoint_is_clean_error(self, tmp_path, capsys):
        assert run_cli("audit", "--checkpoint", tmp_path / "missing.ckpt") == 2
        assert "does not exist" in capsys.readouterr().err


class TestSweep:
    def test_sweep_grid(self, tmp_path, conf_file, capsys):
        outdir = tmp_path / "sweep"
        code = run_cli("sweep", "--config", conf_file, "--methods", "ft,ftp",
                       "--seeds", "0,1", "--outdir", outdir,
                       "--set", "epochs=4")
        assert code == 0
        rows = json.loads((outdir / "sweep_summary.json").read_text())
        assert len(rows) == 4
        methods = {(r["method"], r["seed"]) for r in rows}
        assert methods == {("ft", 0), ("ft", 1), ("ftp", 0), ("ftp", 1)}
        # anchors are shared per seed
        assert (outdir / "pretrain-seed0.ckpt").exists()
        assert (outdir / "pretrain-seed1.ckpt").exists()

    @pytest.mark.parametrize("methods, seeds", [
        ("", "0"), (" , ", "0"), ("ft,fpt", "0"), ("ft", ""), ("ft", "a"), ("ft", "0,1.5"),
    ], ids=["empty-methods", "blank-methods", "unknown-method", "empty-seeds", "letter-seed",
            "float-seed"])
    def test_bad_method_or_seed_list_is_clean_error_before_any_run(self, tmp_path, conf_file,
                                                                   methods, seeds, capsys):
        outdir = tmp_path / "sweep"
        assert run_cli("sweep", "--config", conf_file, "--methods", methods, "--seeds", seeds,
                       "--outdir", outdir) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not outdir.exists()
