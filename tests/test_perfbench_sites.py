"""Every call site the benchmark's tracer wraps still exists in projtune.

``perfbench/tracer.py`` replaces functions by name in the modules that call
them (its ``SITES``). A refactor that moves such a call, for instance
``backward`` out of ``projtune.bench.run``, makes ``projtune_targets`` raise;
this test surfaces that in the fast suite, not only in ``python -m pytest
perfbench``.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.projtune_targets()
    assert len(targets) == len(tracer.SITES)
    for owner, attr, name, _ in targets:
        assert callable(vars(owner)[attr]), name
