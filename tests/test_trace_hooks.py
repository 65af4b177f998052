"""The traced benchmark run rebinds names inside the package; each must exist."""
import importlib
from pathlib import Path

import dapt
import dapt.cli

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


def test_traced_commands_record_layer_spans(monkeypatch, tmp_path):
    # a refactor that bypasses a traced name would zero its per-layer metric
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    spans = importlib.import_module("spans")
    common = ["--model", "spin-half", "--grid-n", "101", "--order", "2"]
    runs = {"validate": ["validate"], "dapt": ["dapt"],
            "sweep": ["sweep", "--v-list", "0.002,0.005,0.01,0.02"]}
    tracer = spans.Tracer()
    spans.install(tracer, dapt)
    try:
        codes = {label: tracer.command(label, dapt.cli.main, argv + common)
                 for label, argv in runs.items()}
    finally:
        tracer.restore()
    assert codes == {label: 0 for label in runs}
    by_command = {}
    for s in tracer.spans:
        by_command.setdefault(s.command, set()).add(s.name)
    commands = {next(n for n in names if n.startswith("cli.")): names
                for names in by_command.values()}
    assert "engine.validity_margins" in commands["cli.validate"]
    assert "engine.series_state" in commands["cli.dapt"]
    assert "pipeline.series_residuals" in commands["cli.sweep"]
