import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def short_head() -> str:
    # HEAD, not HEAD~1: a shallow clone has no parent commit
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip("the repository is not a git checkout")
    return proc.stdout.strip()


def test_a_checkout_records_its_own_revision():
    head = short_head()
    tool = load_tool()
    assert tool.parent_revision(ROOT, None) == head
    assert tool.parent_revision(ROOT, "HEAD") == head


@pytest.mark.parametrize("where", ["outside", "inside"])
def test_a_tree_that_is_no_checkout_records_parent(where, tmp_path):
    head = short_head()
    tool = load_tool()
    # an unpacked git archive is a plain directory, outside or inside a checkout
    tree = tmp_path if where == "outside" else ROOT / "perfbench"
    assert tool.parent_revision(tree, "HEAD") == head
    with pytest.raises(SystemExit, match="--parent"):
        tool.parent_revision(tree, None)
