"""Command-line interface: subcommands, config merging, exit codes."""
import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dapt import Grid, hamiltonian_samples, read_csv, write_hamiltonian
from dapt.cli import build_parser, main
from dapt.models import GAMMA, GammaModel
from oracles import wz_matrix


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_evolve_defaults_write_outputs(in_tmp):
    assert run("evolve", "--grid-n", "301") == 0
    data = read_csv(in_tmp / "dapt_evolve.csv")
    doc = read_json(in_tmp / "dapt_evolve.json")
    assert "s" in data and "residual" in data
    assert doc["config"]["grid_n"] == 301
    assert doc["sup_residual"] < 1e-2
    assert doc["norm_drift"] == 0.0


def test_holonomy_outputs(in_tmp):
    assert run("holonomy", "--grid-n", "201", "--out-csv", "u.csv",
               "--out-json", "u.json") == 0
    doc = read_json(in_tmp / "u.json")
    assert doc["unitarity_deviation"]["level_0"] < 1e-10
    assert doc["corrected_defect"] > 0.0
    data = read_csv(in_tmp / "u.csv")
    assert "u0_00" in data and "v0_00" in data


def test_dapt_population_column(in_tmp):
    assert run("dapt", "--grid-n", "201", "--order", "2") == 0
    data = read_csv(in_tmp / "dapt_dapt.csv")
    assert "ground_population" in data
    pop = np.real(data["ground_population"])
    assert np.all(pop <= 1.0 + 1e-12)
    assert pop[0] == 1.0
    doc = read_json(in_tmp / "dapt_dapt.json")
    assert doc["adiabatic_ok"] is True


def test_validate_flags_fast_drive(in_tmp):
    assert run("validate", "--grid-n", "201", "--w", "10") == 0
    doc = read_json(in_tmp / "dapt_validate.json")
    assert doc["adiabatic_ok"] is False
    assert run("validate", "--grid-n", "201", "--w", "0.01",
               "--out-json", "ok.json") == 0
    assert read_json(in_tmp / "ok.json")["adiabatic_ok"] is True


def test_sweep_and_fit_round_trip(in_tmp):
    vs = ",".join(str(w / (2 * np.pi)) for w in (0.05, 0.1, 0.2, 0.5))
    assert run("sweep", "--grid-n", "301", "--v-list", vs) == 0
    doc = read_json(in_tmp / "dapt_sweep.json")
    slope = doc["fits"]["order1"]["slope"]
    assert abs(slope - 2.0) < 0.5
    assert run("fit-order", "--input", "dapt_sweep.csv") == 0
    refit = read_json(in_tmp / "dapt_fit_order.json")
    assert abs(refit["fits"]["order1"]["slope"] - slope) < 1e-12


def test_fit_order_rejects_out_csv(in_tmp, capsys):
    # fit-order writes no CSV, so asking for one is an error, not a no-op
    vs = ",".join(str(w / (2 * np.pi)) for w in (0.05, 0.1, 0.2, 0.5))
    assert run("sweep", "--grid-n", "101", "--v-list", vs) == 0
    cfg = in_tmp / "fit.json"
    cfg.write_text(json.dumps({"out_csv": "x.csv"}))
    for extra in (("--out-csv", "x.csv"), ("--config", str(cfg))):
        capsys.readouterr()
        assert run("fit-order", "--input", "dapt_sweep.csv",
                   "--out-json", "fit.out.json", *extra) == 2
        assert "out_csv" in capsys.readouterr().err
        assert not (in_tmp / "x.csv").exists()
        assert not (in_tmp / "fit.out.json").exists()


def test_malformed_input_files_exit_2(in_tmp, capsys):
    # an empty sweep CSV, a non-numeric cell and a file of bytes that are
    # not text are configuration errors naming the file, not tracebacks
    for name, content, argv in [
        ("empty.csv", b"", ("fit-order", "--input")),
        ("cell.csv", b"velocity,residual_order0\r\n0.01,x\r\n",
         ("fit-order", "--input")),
        ("h.txt", b"\xff\xfe\x00bad", ("validate", "--hamiltonian-file")),
    ]:
        (in_tmp / name).write_bytes(content)
        capsys.readouterr()
        assert run(*argv, name) == 2, name
        assert name in capsys.readouterr().err


def test_spin_model_selection(in_tmp):
    assert run("evolve", "--model", "spin-half", "--grid-n", "201") == 0
    doc = read_json(in_tmp / "dapt_evolve.json")
    assert doc["config"]["model"] == "spin-half"


def test_config_file_and_flag_precedence(in_tmp):
    cfg = in_tmp / "run.json"
    cfg.write_text(json.dumps({"grid_n": 201, "w": 0.05, "order": 2}))
    assert run("validate", "--config", str(cfg), "--w", "0.02") == 0
    doc = read_json(in_tmp / "dapt_validate.json")
    assert doc["config"]["grid_n"] == 201
    assert doc["config"]["order"] == 2
    assert doc["config"]["w"] == 0.02


def test_hamiltonian_file_route(in_tmp, gamma):
    g = Grid.uniform(201)
    write_hamiltonian("g.txt", hamiltonian_samples(gamma.hamiltonian, g), g)
    assert run("evolve", "--hamiltonian-file", "g.txt", "--w", "0.05") == 0
    doc = read_json(in_tmp / "dapt_evolve.json")
    assert doc["sup_residual"] < 0.2
    assert doc["norm_drift"] < 1e-10


def test_constant_hamiltonian_is_reproduced_exactly(in_tmp):
    # order 0 with a frozen Hamiltonian leaves only reference-integrator
    # error, and each Magnus step is exact for a constant Hamiltonian
    g = Grid.uniform(301)
    h0 = GammaModel(cone_angle=np.pi / 3).hamiltonian(0.0)
    write_hamiltonian("const.txt", np.broadcast_to(h0, (g.n, 4, 4)), g)
    assert run("evolve", "--hamiltonian-file", "const.txt", "--order", "0",
               "--v", "0.01") == 0
    doc = read_json(in_tmp / "dapt_evolve.json")
    assert doc["sup_residual"] <= 1e-9


@pytest.mark.parametrize("command", ["dapt", "validate", "holonomy", "evolve"])
def test_single_level_file_runs_every_order(in_tmp, command):
    # H = I has one level: no gaps, no mixing, and zero corrections
    g = Grid.uniform(11)
    write_hamiltonian("one.txt", np.broadcast_to(np.eye(2), (g.n, 2, 2)), g)
    assert run(command, "--hamiltonian-file", "one.txt", "--order", "2") == 0


@pytest.mark.parametrize("argv,code", [
    (("evolve", "--order", "7"), 2),
    (("evolve", "--grid-n", "2"), 2),
    (("evolve", "--b", "-1"), 2),
    (("evolve", "--theta", "9"), 2),
    (("evolve", "--v", "0"), 2),
    (("evolve", "--substeps", "0"), 2),
    (("evolve", "--model", "gamma", "--w", "-2"), 2),
    (("sweep",), 2),
    (("sweep", "--v-list", "0.1,abc"), 2),
    (("fit-order",), 2),
    (("evolve", "--hamiltonian-file", "missing.txt"), 5),
    # theta = 0 and w = b is a resonance, which the reference solves
    (("evolve", "--model", "gamma", "--theta", "0", "--w", "1"), 0),
    (("sweep", "--model", "gamma", "--theta", "0",
      "--v-list", "0.01,0.02,0.05,0.15915494309189535"), 0),
    # a sweep whose slopes cannot be fitted is a bad flag too
    (("sweep", "--grid-n", "101", "--v-list", "0.01,0.02,0.05"), 2),
    (("sweep", "--grid-n", "101", "--v-list", "0.01,0.01,0.05,0.1"), 2),
    (("sweep", "--grid-n", "101", "--v-list", "0.02,0.03,0.05,0.1"), 2),
    (("fit-order", "--input", "three_rows.csv"), 2),
    (("validate", "--hamiltonian-file", "big_dim.txt"), 2),
])
def test_error_exit_codes(argv, code):
    Path("three_rows.csv").write_text(
        "velocity,residual_order0\n0.001,1e-3\n0.01,1e-2\n0.1,1e-1\n")
    Path("big_dim.txt").write_text("100000 3\n0 1,0\n0.5 1,0\n1 1,0\n")
    assert run(*argv) == code


@pytest.mark.parametrize("v_list", ["nan,0.01,0.02,0.1",
                                    "0.01,0.02,0.1,inf"])
def test_sweep_rejects_non_finite_velocities(in_tmp, capsys, v_list):
    assert run("sweep", "--grid-n", "101", "--v-list", v_list) == 2
    assert "finite" in capsys.readouterr().err
    assert not (in_tmp / "dapt_sweep.csv").exists()


@pytest.mark.parametrize("command", ["validate", "evolve"])
@pytest.mark.parametrize("node,field,token,message", [
    (25, 1, "nan,0", "non-finite"),
    (25, 2, "inf,0", "non-finite"),
    (25, 0, "nan", "bad grid"),
    (50, 0, "nan", "bad grid"),
])
def test_non_finite_file_exit_code(in_tmp, gamma, capsys, command, node,
                                   field, token, message):
    # a non-finite node time (field 0) or matrix entry is rejected as
    # malformed input before it reaches the eigensolver
    g = Grid.uniform(51)
    write_hamiltonian("h.txt", hamiltonian_samples(gamma.hamiltonian, g), g)
    lines = (in_tmp / "h.txt").read_text().splitlines()
    row = lines[1 + node].split()
    row[field] = token
    lines[1 + node] = " ".join(row)
    (in_tmp / "h.txt").write_text("\n".join(lines) + "\n")
    assert run(command, "--hamiltonian-file", "h.txt") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("asymmetry,code", [(5e-11, 0), (1e-6, 2)])
def test_hermiticity_tolerance_exit_codes(in_tmp, gamma, asymmetry, code):
    # below 1e-10 * max(1, max|H|) the file is symmetrised and accepted by
    # every stage; above it the input is rejected as malformed
    g = Grid.uniform(201)
    samples = hamiltonian_samples(gamma.hamiltonian, g)
    samples[50, 0, 1] += asymmetry
    write_hamiltonian("h.txt", samples, g)
    assert run("validate", "--hamiltonian-file", "h.txt") == code


def test_ragged_holonomy_population_is_finite(in_tmp, ragged):
    # the ground level (2) is smaller than the largest level (3), so label
    # rows beyond the ground level's must not be tracked
    g = Grid.uniform(201)
    write_hamiltonian("r.txt", ragged(g), g)
    assert run("holonomy", "--hamiltonian-file", "r.txt") == 0
    doc = read_json(in_tmp / "dapt_holonomy.json")
    assert 0.99 < doc["final_population"] <= 1.0
    data = read_csv(in_tmp / "dapt_holonomy.csv")
    assert "v0_11" in data and "v0_21" not in data


def test_gap_collapse_exit_code(in_tmp):
    g = Grid.uniform(51)
    f = 0.5 * (1e-7 + g.s)
    write_hamiltonian("gap.txt", f[:, None, None] * GAMMA[2], g)
    assert run("dapt", "--hamiltonian-file", "gap.txt") == 3


def test_degeneracy_change_exit_code(in_tmp):
    g = Grid.uniform(51)
    samples = np.stack([np.diag([-1.0, -1.0 + 0.1 * s, 1.0, 1.5]).astype(complex)
                        for s in g.s])
    write_hamiltonian("deg.txt", samples, g)
    assert run("dapt", "--hamiltonian-file", "deg.txt") == 4


def test_bad_config_files(in_tmp, capsys):
    bad = in_tmp / "bad.json"
    bad.write_text("{not json")
    assert run("evolve", "--config", str(bad)) == 2
    unknown = in_tmp / "unk.json"
    unknown.write_text(json.dumps({"mystery": 1}))
    assert run("evolve", "--config", str(unknown)) == 2
    # the file must hold a JSON object, as text
    for content in (b"5", b"[]", b"\xff\xfe\x00bad"):
        bad.write_bytes(content)
        capsys.readouterr()
        assert run("evolve", "--config", str(bad)) == 2, content
        assert "bad.json" in capsys.readouterr().err, content
    # a wrong-typed value is a configuration error naming its key; null is
    # accepted only where the default is null
    typed = in_tmp / "typed.json"
    for command, cfg in [
        ("evolve", {"order": 2.0}),
        ("evolve", {"order": True}),
        ("evolve", {"grid_n": "2001"}),
        ("evolve", {"grid_n": 101.5}),
        ("evolve", {"b": "x"}),
        ("evolve", {"b": True}),
        ("evolve", {"degeneracy_tol": "1e-8"}),
        ("evolve", {"threshold": None}),
        ("evolve", {"model": None}),
        ("evolve", {"hamiltonian_file": 3}),
        ("evolve", {"substeps": 2.5}),
        ("sweep", {"v_list": [0.01, 0.02, 0.05, "x"]}),
        ("sweep", {"v_list": 0.01}),
    ]:
        typed.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(command, "--config", str(typed)) == 2, cfg
        assert next(iter(cfg)) in capsys.readouterr().err, cfg


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_substeps_flag_reaches_propagator(in_tmp):
    g = Grid.uniform(301)
    h0 = GammaModel(cone_angle=np.pi / 3).hamiltonian(0.0)
    write_hamiltonian("const.txt", np.broadcast_to(h0, (g.n, 4, 4)), g)
    base = ("evolve", "--hamiltonian-file", "const.txt", "--order", "0",
            "--v", "0.01")
    assert run(*base, "--substeps", "1") == 0
    assert read_json(in_tmp / "dapt_evolve.json")["substeps"] == 1
    assert run(*base) == 0
    # the automatic count caps the phase per substep at 0.1 rad
    scale = np.abs(np.linalg.eigvalsh(h0)).max()
    auto = int(np.ceil(g.h * scale / (0.01 * 0.1)))
    assert auto > 1
    assert read_json(in_tmp / "dapt_evolve.json")["substeps"] == auto


def test_numeric_transport_flag(in_tmp, gamma):
    assert run("holonomy", "--grid-n", "201", "--order", "0",
               "--numeric-transport") == 0
    data = read_csv(in_tmp / "dapt_holonomy.csv")
    closed = wz_matrix(gamma, np.real(data["s"]))[:, 0, 0]
    diff = np.abs(data["u0_00"] - closed).max()
    assert 1e-8 < diff < 1e-3
    assert run("holonomy", "--grid-n", "201", "--order", "0") == 0
    data = read_csv(in_tmp / "dapt_holonomy.csv")
    assert np.abs(data["u0_00"] - closed).max() < 1e-14


def test_readme_documents_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):]
    section = section[:section.index("\n## ")]
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    defined = {flag for sp in subs.choices.values() for a in sp._actions
               for flag in a.option_strings} - {"-h", "--help"}
    assert defined - set(re.findall(r"--[a-z][a-z-]*", section)) == set()
    table = re.findall(r"^\| `(--[a-z][a-z-]*)", section, re.MULTILINE)
    assert len(table) > 10
    assert set(table) - defined == set()
