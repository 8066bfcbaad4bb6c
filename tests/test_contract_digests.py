import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "contract_digests.py"

TINY = """\
epochs = 2
batch_size = 16
checkpoint_every = 2
pretrain.epochs = 1
dataset.n_train = 200
dataset.n_test = 100
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("contract_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_configuration_prints_the_same_lines_twice():
    tool = load_tool()
    configurations = {"ftp-tiny": {"method": "ftp"}}
    first = tool.digest_lines(configurations, TINY)
    assert first == tool.digest_lines(configurations, TINY)
    files = {line.split()[1] for line in first if line.startswith("ftp-tiny ")}
    for run in ("full", "resumed"):
        for name in ("metrics.csv", "metrics.json", "summary.json", "state.ckpt",
                     "evaluate.json", "audit.json"):
            assert f"{run}/{name}" in files
    assert any(f.startswith("full/ckpt_iter") for f in files)
    assert [line.split()[:2] for line in first if line.startswith("pretrain ")] == \
        [["pretrain", "pretrain-seed0.ckpt"]]
