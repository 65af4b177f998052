"""The traced benchmark run rebinds names inside the package; each must exist."""
import importlib
from pathlib import Path

import dapt

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    owners = [dapt.cli, dapt.pipeline, dapt.engine, dapt.holonomy,
              dapt.couplings, dapt.pipeline.Workspace, dapt.models.GammaModel]
    before = [dict(vars(o)) for o in owners]
    tracer = spans.Tracer()
    spans.install(tracer, dapt)
    try:
        assert dapt.pipeline.smooth_gauge is not before[1]["smooth_gauge"]
    finally:
        tracer.restore()
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert all(after[k] is v for k, v in names.items()), owner
