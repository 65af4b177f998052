"""Command-line front end.

Subcommands: evolve, holonomy, dapt, validate, sweep, fit-order. Options
may come from a JSON config file (--config); explicit flags win over the
file, which wins over built-in defaults. Every run writes a CSV data file
plus a JSON summary echoing the effective configuration.

Exit codes: 0 success, 2 bad configuration or non-Hermitian input,
3 spectral-gap collapse, 4 degeneracy structure change, 5 I/O failure,
1 any other library error.
"""
import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .engine import series_state
from .errors import (ConfigError, DaptError, DegeneracyChanged, GapCollapse,
                     NonHermitianInput)
from .grid import Grid
from .hamio import read_csv, read_hamiltonian, write_csv, write_summary
from .models import GammaModel, SpinHalfModel
from .pipeline import Workspace, fit_power_law, sweep
from .spectral import level_slices

DEFAULTS = {
    "model": "gamma",
    "hamiltonian_file": None,
    "b": 1.0,
    "theta": math.pi / 3.0,
    "w": 0.01,
    "v": None,
    "grid_n": 2001,
    "order": 1,
    "degeneracy_tol": 1e-8,
    "gap_floor": None,
    "threshold": 0.1,
    "substeps": None,
    "numeric_transport": False,
    "v_list": None,
    "input": None,
    "out_csv": None,
    "out_json": None,
}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


_INTEGER = ("an integer", lambda x: isinstance(x, int)
            and not isinstance(x, bool))
_REAL = ("a finite real number", _is_real)
_TEXT = ("a string", lambda x: isinstance(x, str))

# the type every key must have; null is allowed only where the default is
KINDS = {
    "model": _TEXT,
    "hamiltonian_file": _TEXT,
    "b": _REAL,
    "theta": _REAL,
    "w": _REAL,
    "v": _REAL,
    "grid_n": _INTEGER,
    "order": _INTEGER,
    "degeneracy_tol": _REAL,
    "gap_floor": _REAL,
    "threshold": _REAL,
    "substeps": _INTEGER,
    "numeric_transport": ("a boolean", lambda x: isinstance(x, bool)),
    "v_list": ("a string or a list of numbers",
               lambda x: isinstance(x, str)
               or isinstance(x, list) and all(map(_is_real, x))),
    "input": _TEXT,
    "out_csv": _TEXT,
    "out_json": _TEXT,
}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _validate(cfg: dict) -> dict:
    for key, (kind, ok) in KINDS.items():
        val = cfg[key]
        if not (ok(val) or val is None and DEFAULTS[key] is None):
            raise ConfigError(f"{key} must be {kind}, got {val!r}")
    if cfg["model"] not in ("gamma", "spin-half"):
        raise ConfigError(f"unknown model {cfg['model']!r}")
    if cfg["b"] <= 0.0 or cfg["w"] <= 0.0:
        raise ConfigError("b and w must be positive")
    if not 0.0 <= cfg["theta"] <= math.pi:
        raise ConfigError("theta must lie in [0, pi]")
    if cfg["grid_n"] < 3:
        raise ConfigError("grid_n must be at least 3")
    if cfg["order"] not in (0, 1, 2):
        raise ConfigError("order must be 0, 1 or 2")
    if cfg["degeneracy_tol"] <= 0.0 or cfg["threshold"] <= 0.0:
        raise ConfigError("tolerances must be positive")
    if cfg["v"] is not None and cfg["v"] <= 0.0:
        raise ConfigError("v must be positive")
    if cfg["substeps"] is not None and cfg["substeps"] < 1:
        raise ConfigError("substeps must be at least 1")
    return cfg


def _velocity(cfg: dict) -> float:
    if cfg["v"] is not None:
        return float(cfg["v"])
    # one full protocol period at angular frequency w
    return float(cfg["w"]) / (2.0 * math.pi)


def _build(cfg: dict) -> Workspace:
    if cfg["hamiltonian_file"]:
        grid, samples = read_hamiltonian(cfg["hamiltonian_file"])
        return Workspace.build(samples=samples, grid=grid,
                               order=cfg["order"],
                               degeneracy_tol=cfg["degeneracy_tol"],
                               gap_floor=cfg["gap_floor"])
    cls = GammaModel if cfg["model"] == "gamma" else SpinHalfModel
    model = cls(gap=cfg["b"], cone_angle=cfg["theta"])
    grid = Grid.uniform(cfg["grid_n"])
    return Workspace.build(model=model, grid=grid, order=cfg["order"],
                           model_holonomy=not cfg["numeric_transport"])


def _outputs(cfg: dict, command: str):
    csv_path = cfg["out_csv"] or f"dapt_{command.replace('-', '_')}.csv"
    json_path = cfg["out_json"] or f"dapt_{command.replace('-', '_')}.json"
    return csv_path, json_path


def _echo(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if v is not None}


def cmd_evolve(cfg: dict) -> int:
    ws = _build(cfg)
    v = _velocity(cfg)
    exact, drift, substeps = ws.exact(v, substeps=cfg["substeps"])
    fam = ws.series(v)
    series_vec = fam.vectors(ws.path)[:, 0, :]
    exact_coeff = np.einsum("kij,ki->kj", ws.path.basis().conj(), exact)
    series_coeff = fam.coefficients[:, 0, :]
    res = np.linalg.norm(exact - series_vec, axis=1)
    cols = [("s", ws.grid.s)]
    cols += [(f"exact_{j}", exact_coeff[:, j]) for j in range(ws.path.dim)]
    cols += [(f"order{ws.order}_{j}", series_coeff[:, j])
             for j in range(ws.path.dim)]
    cols.append(("residual", res))
    csv_path, json_path = _outputs(cfg, "evolve")
    write_csv(csv_path, cols)
    write_summary(json_path, {
        "velocity": v,
        "order": ws.order,
        "sup_residual": float(res.max()),
        "final_residual": float(res[-1]),
        "norm_drift": drift,
        "substeps": substeps,
    }, config=_echo(cfg))
    print(f"evolve: sup residual {res.max():.3e}; wrote {csv_path}, {json_path}")
    return 0


def cmd_holonomy(cfg: dict) -> int:
    ws = _build(cfg)
    v = _velocity(cfg)
    cols = [("s", ws.grid.s)]
    dev = {}
    for n, hp in enumerate(ws.holonomies):
        d = hp.u.shape[1]
        cols += [(f"u{n}_{i}{j}", hp.u[:, i, j])
                 for i in range(d) for j in range(d)]
        dev[f"level_{n}"] = hp.unitarity_deviation()
    payload = {"velocity": v, "unitarity_deviation": dev}
    if ws.order >= 1:
        corr = ws.corrected(v)
        d = corr.v_matrix.shape[1]
        dg = corr.v_matrix.shape[2]
        cols += [(f"v0_{i}{j}", corr.v_matrix[:, i, j])
                 for i in range(d) for j in range(dg)]
        payload["corrected_defect"] = corr.unitarity_deviation()
        payload["final_population"] = float(corr.population[-1].max())
    csv_path, json_path = _outputs(cfg, "holonomy")
    write_csv(csv_path, cols)
    write_summary(json_path, payload, config=_echo(cfg))
    print(f"holonomy: wrote {csv_path}, {json_path}")
    return 0


def cmd_dapt(cfg: dict) -> int:
    ws = _build(cfg)
    v = _velocity(cfg)
    cols = [("s", ws.grid.s)]
    for p in range(ws.order + 1):
        fam = series_state(ws.blocks, ws.phases, v, order=p)
        cols += [(f"order{p}_{j}", fam.coefficients[:, 0, j])
                 for j in range(ws.path.dim)]
    # the last iteration's fam is the full series
    sl = level_slices(ws.path.dims)[0]
    ground = np.linalg.norm(fam.coefficients[:, 0, sl], axis=1) ** 2
    total = np.linalg.norm(fam.coefficients[:, 0, :], axis=1) ** 2
    cols.append(("ground_population", ground / total))
    rep = ws.margins(v, threshold=cfg["threshold"])
    csv_path, json_path = _outputs(cfg, "dapt")
    write_csv(csv_path, cols)
    write_summary(json_path, {
        "velocity": v,
        "order": ws.order,
        "final_ground_population": float(ground[-1] / total[-1]),
        "margin_secular_sup": rep.sup_secular,
        "margin_gap_sup": rep.sup_gap,
        "adiabatic_ok": rep.adiabatic_ok,
    }, config=_echo(cfg))
    print(f"dapt: wrote {csv_path}, {json_path}")
    return 0


def cmd_validate(cfg: dict) -> int:
    ws = _build(cfg)
    v = _velocity(cfg)
    rep = ws.margins(v, threshold=cfg["threshold"])
    cols = [("s", ws.grid.s)]
    cols += [(f"q1_{g}", rep.secular[:, g])
             for g in range(rep.secular.shape[1])]
    for n, prof in rep.gap.items():
        cols += [(f"q2_{n}_{g}", prof[:, g]) for g in range(prof.shape[1])]
    csv_path, json_path = _outputs(cfg, "validate")
    write_csv(csv_path, cols)
    write_summary(json_path, {
        "velocity": v,
        "threshold": rep.threshold,
        "sup_secular": rep.sup_secular,
        "sup_gap": {str(k): val for k, val in rep.sup_gap.items()},
        "final_secular": rep.final_secular,
        "final_gap": {str(k): val for k, val in rep.final_gap.items()},
        "adiabatic_ok": rep.adiabatic_ok,
    }, config=_echo(cfg))
    print(f"validate: adiabatic_ok={rep.adiabatic_ok}; "
          f"wrote {csv_path}, {json_path}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    if not cfg["v_list"]:
        raise ConfigError("sweep requires --v-list")
    if isinstance(cfg["v_list"], str):
        try:
            vs = [float(tok) for tok in cfg["v_list"].split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --v-list: {exc}") from None
    else:
        vs = [float(x) for x in cfg["v_list"]]
    ws = _build(cfg)
    result = sweep(ws, vs, threshold=cfg["threshold"])
    cols = [("velocity", result.velocities)]
    for p in range(ws.order + 1):
        cols.append((f"residual_order{p}", result.column(p)))
    cols.append(("margin_secular", [r.margin_secular for r in result.rows]))
    cols.append(("margin_gap", [r.margin_gap for r in result.rows]))
    cols.append(("holonomy_defect", [r.holonomy_defect for r in result.rows]))
    csv_path, json_path = _outputs(cfg, "sweep")
    write_csv(csv_path, cols)
    fits = {f"order{p}": {"slope": f.slope, "half_width": f.half_width,
                          "intercept": f.intercept, "n_points": f.n_points}
            for p, f in enumerate(result.fits)}
    write_summary(json_path, {"fits": fits}, config=_echo(cfg))
    slopes = ", ".join(f"order{p}: {f.slope:.3f}"
                       for p, f in enumerate(result.fits))
    print(f"sweep: fitted slopes {slopes}; wrote {csv_path}, {json_path}")
    return 0


def cmd_fit_order(cfg: dict) -> int:
    if not cfg["input"]:
        raise ConfigError("fit-order requires --input (a sweep CSV)")
    data = read_csv(cfg["input"])
    if "velocity" not in data:
        raise ConfigError(f"{cfg['input']}: no velocity column")
    vs = np.real(data["velocity"])
    fits = {}
    for name, col in data.items():
        if not name.startswith("residual_order"):
            continue
        fit = fit_power_law(vs, np.real(col))
        fits[name.removeprefix("residual_")] = {
            "slope": fit.slope, "half_width": fit.half_width,
            "intercept": fit.intercept, "n_points": fit.n_points}
    if not fits:
        raise ConfigError(f"{cfg['input']}: no residual_order columns")
    _, json_path = _outputs(cfg, "fit_order")
    write_summary(json_path, {"fits": fits}, config=_echo(cfg))
    lines = ", ".join(f"{k}: {v['slope']:.3f}" for k, v in sorted(fits.items()))
    print(f"fit-order: {lines}; wrote {json_path}")
    return 0


COMMANDS = {
    "evolve": cmd_evolve,
    "holonomy": cmd_holonomy,
    "dapt": cmd_dapt,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "fit-order": cmd_fit_order,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--model", choices=["gamma", "spin-half"])
    p.add_argument("--hamiltonian-file", dest="hamiltonian_file",
                   help="sampled-Hamiltonian text file (grid comes from it)")
    p.add_argument("--b", type=float, help="level splitting (default 1.0)")
    p.add_argument("--theta", type=float, help="cone angle (default pi/3)")
    p.add_argument("--w", type=float,
                   help="drive angular frequency; sets v = w / 2pi")
    p.add_argument("--v", type=float, help="sweep velocity (overrides --w)")
    p.add_argument("--grid-n", dest="grid_n", type=int,
                   help="grid nodes for built-in models (default 2001)")
    p.add_argument("--order", type=int, help="series order cap, 0..2")
    p.add_argument("--degeneracy-tol", dest="degeneracy_tol", type=float)
    p.add_argument("--gap-floor", dest="gap_floor", type=float)
    p.add_argument("--threshold", type=float,
                   help="validity margin threshold (default 0.1)")
    p.add_argument("--substeps", type=int,
                   help="Magnus substeps per grid interval of the reference "
                        "propagator (default: automatic)")
    p.add_argument("--numeric-transport", dest="numeric_transport",
                   action="store_true", default=None,
                   help="transport holonomies numerically even when the "
                        "model has a closed form")
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-json", dest="out_json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dapt",
        description="Degenerate adiabatic perturbation theory toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = subs.add_parser(name)
        _add_common(sp)
        if name == "sweep":
            sp.add_argument("--v-list", dest="v_list",
                            help="comma-separated sweep velocities")
        if name == "fit-order":
            sp.add_argument("--input", help="sweep CSV to fit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _validate(_merge_config(args))
        return COMMANDS[args.command](cfg)
    except (ConfigError, NonHermitianInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GapCollapse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegeneracyChanged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except DaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
