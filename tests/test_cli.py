import json

import pytest

from projtune.bench.cli import main

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


class TestEvaluateAudit:
    @pytest.fixture
    def finished_run(self, tmp_path, conf_file):
        outdir = tmp_path / "done"
        run_cli("finetune", "--config", conf_file, "--set", f"outdir={outdir}",
                "--set", "method=ftp")
        return outdir

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
