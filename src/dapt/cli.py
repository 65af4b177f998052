"""Command-line front end.

Subcommands: evolve, holonomy, dapt, validate, sweep, fit-order. Options
may come from a JSON config file (--config); explicit flags win over the
file, which wins over built-in defaults. Each option is one row of
OPTIONS, which both the config check and the parser read. Each cmd_*
returns (cols, payload, note), and _write alone writes every output: the
CSV of the columns, the JSON summary echoing the effective configuration
and the stdout line.

Exit codes: 0 success, 2 bad configuration, non-Hermitian input or a
sweep that cannot be fitted, 3 spectral-gap collapse, 4 degeneracy
structure change, 5 I/O failure, 1 any other library error.
"""
import argparse
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .engine import assemble_terms, series_state
from .errors import (ConfigError, DaptError, DegeneracyChanged, GapCollapse,
                     InsufficientSweep, NonHermitianInput)
from .grid import Grid
from .hamio import read_csv, read_hamiltonian, write_csv, write_summary
from .linalg import unitary_deviation
from .models import GammaModel, SpinHalfModel
from .pipeline import Workspace, fit_power_law, sweep, sweep_velocities
from .spectral import level_slices

MODELS = {"gamma": GammaModel, "spin-half": SpinHalfModel}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


class Kind(NamedTuple):
    name: str
    ok: Callable[[object], bool]  # the type test of a config-file value
    convert: Optional[Callable]  # argparse's; None for an on/off flag


_INTEGER = Kind("an integer", lambda x: isinstance(x, int)
                and not isinstance(x, bool), int)
_REAL = Kind("a finite real number", _is_real, float)
_TEXT = Kind("a string", lambda x: isinstance(x, str), str)


class Option(NamedTuple):
    default: object  # null is allowed only where the default is
    kind: Kind
    help: Optional[str] = None
    command: Optional[str] = None  # the one subcommand taking it, else all


# every config key, in the order the summary echoes them, and its --flag
OPTIONS = {
    "model": Option("gamma", _TEXT),
    "hamiltonian_file": Option(
        None, _TEXT, "sampled-Hamiltonian text file (grid comes from it)"),
    "b": Option(1.0, _REAL, "level splitting (default 1.0)"),
    "theta": Option(math.pi / 3.0, _REAL, "cone angle (default pi/3)"),
    "w": Option(0.01, _REAL, "drive angular frequency; sets v = w / 2pi"),
    "v": Option(None, _REAL, "sweep velocity (overrides --w)"),
    "grid_n": Option(2001, _INTEGER,
                     "grid nodes for built-in models (default 2001)"),
    "order": Option(1, _INTEGER, "series order cap, 0..2"),
    "degeneracy_tol": Option(1e-8, _REAL),
    "gap_floor": Option(None, _REAL),
    "threshold": Option(0.1, _REAL, "validity margin threshold (default 0.1)"),
    "substeps": Option(None, _INTEGER,
                       "Magnus substeps per grid interval of the reference "
                       "propagator (default: automatic)"),
    "numeric_transport": Option(
        False, Kind("a boolean", lambda x: isinstance(x, bool), None),
        "transport holonomies numerically even when the model has a "
        "closed form"),
    "v_list": Option(
        None, Kind("a string or a list of numbers",
                   lambda x: isinstance(x, str)
                   or isinstance(x, list) and all(map(_is_real, x)), str),
        "comma-separated sweep velocities", "sweep"),
    "input": Option(None, _TEXT, "sweep CSV to fit", "fit-order"),
    "out_csv": Option(None, _TEXT),
    "out_json": Option(None, _TEXT),
}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {key: opt.default for key, opt in OPTIONS.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except ValueError as exc:   # bad JSON, or bytes that are not text
            raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: must hold a JSON object, "
                              f"not {type(loaded).__name__}")
        unknown = set(loaded) - set(OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in OPTIONS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _validate(cfg: dict) -> dict:
    for key, opt in OPTIONS.items():
        val = cfg[key]
        if not (opt.kind.ok(val) or val is None and opt.default is None):
            raise ConfigError(f"{key} must be {opt.kind.name}, got {val!r}")
    if cfg["model"] not in MODELS:
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
    model = MODELS[cfg["model"]](gap=cfg["b"], cone_angle=cfg["theta"])
    grid = Grid.uniform(cfg["grid_n"])
    return Workspace.build(model=model, grid=grid, order=cfg["order"],
                           model_holonomy=not cfg["numeric_transport"])


def _fits(named) -> tuple:
    """The summary's fits and the stdout slope list of (name, fit) pairs."""
    fits = {name: {"slope": f.slope, "half_width": f.half_width,
                   "intercept": f.intercept, "n_points": f.n_points}
            for name, f in named}
    return fits, ", ".join(f"{k}: {v['slope']:.3f}"
                           for k, v in sorted(fits.items()))


def cmd_evolve(cfg: dict):
    ws = _build(cfg)
    v = _velocity(cfg)
    exact_coeff, drift, substeps = ws.exact_coefficients(
        v, substeps=cfg["substeps"])
    series_coeff = ws.series(v).coefficients[:, 0, :]
    # the snapshot basis is unitary: the state distance, in coefficients
    res = np.linalg.norm(exact_coeff - series_coeff, axis=1)
    cols = [("s", ws.grid.s)]
    cols += [(f"exact_{j}", exact_coeff[:, j]) for j in range(ws.path.dim)]
    cols += [(f"order{ws.order}_{j}", series_coeff[:, j])
             for j in range(ws.path.dim)]
    cols.append(("residual", res))
    return cols, {
        "velocity": v,
        "order": ws.order,
        "sup_residual": float(res.max()),
        "final_residual": float(res[-1]),
        "norm_drift": drift,
        "substeps": substeps,
    }, f"sup residual {res.max():.3e}"


def cmd_holonomy(cfg: dict):
    ws = _build(cfg)
    v = _velocity(cfg)
    cols = [("s", ws.grid.s)]
    dev = {}
    for n, u in enumerate(ws.holonomies):
        d = u.shape[1]
        cols += [(f"u{n}_{i}{j}", u[:, i, j])
                 for i in range(d) for j in range(d)]
        dev[f"level_{n}"] = unitary_deviation(u)
    payload = {"velocity": v, "unitarity_deviation": dev}
    if ws.order >= 1:
        terms = assemble_terms(ws.blocks[:2], ws.phases, v)
        corr = ws.corrected(v, terms=terms)
        _, d, dg = corr.shape
        cols += [(f"v0_{i}{j}", corr[:, i, j])
                 for i in range(d) for j in range(dg)]
        payload["corrected_defect"] = unitary_deviation(corr)
        # the ground-level weight of psi^(0) + v psi^(1) at s = 1
        total = terms[0].coefficients[-1] + v * terms[1].coefficients[-1]
        ground = np.linalg.norm(total[:, :dg], axis=1)
        payload["final_population"] = float(
            ((ground / np.linalg.norm(total, axis=1)) ** 2).max())
    return cols, payload, ""


def cmd_dapt(cfg: dict):
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
    return cols, {
        "velocity": v,
        "order": ws.order,
        "final_ground_population": float(ground[-1] / total[-1]),
        "margin_secular_sup": rep.sup_secular,
        "margin_gap_sup": rep.sup_gap,
        "adiabatic_ok": rep.adiabatic_ok,
    }, ""


def cmd_validate(cfg: dict):
    ws = _build(cfg)
    v = _velocity(cfg)
    rep = ws.margins(v, threshold=cfg["threshold"])
    cols = [("s", ws.grid.s)]
    cols += [(f"q1_{g}", rep.secular[:, g])
             for g in range(rep.secular.shape[1])]
    for n, prof in rep.gap.items():
        cols += [(f"q2_{n}_{g}", prof[:, g]) for g in range(prof.shape[1])]
    return cols, {
        "velocity": v,
        "threshold": rep.threshold,
        "sup_secular": rep.sup_secular,
        "sup_gap": {str(k): val for k, val in rep.sup_gap.items()},
        "final_secular": rep.final_secular,
        "final_gap": {str(k): val for k, val in rep.final_gap.items()},
        "adiabatic_ok": rep.adiabatic_ok,
    }, f"adiabatic_ok={rep.adiabatic_ok}"


def cmd_sweep(cfg: dict):
    if not cfg["v_list"]:
        raise ConfigError("sweep requires --v-list")
    vs = cfg["v_list"]
    if isinstance(vs, str):
        try:
            vs = [float(tok) for tok in vs.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --v-list: {exc}") from None
    vs = sweep_velocities(vs)       # before the workspace is built
    ws = _build(cfg)
    result = sweep(ws, vs, threshold=cfg["threshold"])
    cols = [("velocity", result.velocities)]
    for p in range(ws.order + 1):
        cols.append((f"residual_order{p}", result.column(p)))
    cols.append(("margin_secular", [r.margin_secular for r in result.rows]))
    cols.append(("margin_gap", [r.margin_gap for r in result.rows]))
    cols.append(("holonomy_defect", [r.holonomy_defect for r in result.rows]))
    fits, slopes = _fits((f"order{p}", f) for p, f in enumerate(result.fits))
    return cols, {"fits": fits}, f"fitted slopes {slopes}"


def cmd_fit_order(cfg: dict):
    if cfg["out_csv"]:
        raise ConfigError("fit-order writes no CSV, so out_csv is not "
                          "accepted")
    if not cfg["input"]:
        raise ConfigError("fit-order requires --input (a sweep CSV)")
    data = read_csv(cfg["input"])
    if "velocity" not in data:
        raise ConfigError(f"{cfg['input']}: no velocity column")
    vs = np.real(data["velocity"])
    named = [(name.removeprefix("residual_"), fit_power_law(vs, np.real(col)))
             for name, col in data.items() if name.startswith("residual_order")]
    if not named:
        raise ConfigError(f"{cfg['input']}: no residual_order columns")
    fits, slopes = _fits(named)
    return None, {"fits": fits}, slopes


COMMANDS = {
    "evolve": cmd_evolve,
    "holonomy": cmd_holonomy,
    "dapt": cmd_dapt,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "fit-order": cmd_fit_order,
}


def _write(cfg: dict, command: str, cols, payload: dict, note: str) -> None:
    """Every output of a run: the CSV of ``cols`` (none when None), the
    JSON summary of ``payload`` with the effective configuration, and one
    stdout line that leads with ``note`` and names the files written."""
    stem = "dapt_" + command.replace("-", "_")
    paths = []
    if cols is not None:
        paths.append(cfg["out_csv"] or f"{stem}.csv")
        write_csv(paths[-1], cols)
    paths.append(cfg["out_json"] or f"{stem}.json")
    write_summary(paths[-1], payload,
                  config={k: v for k, v in cfg.items() if v is not None})
    wrote = "wrote " + ", ".join(paths)
    print(f"{command}: {note}; {wrote}" if note else f"{command}: {wrote}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dapt",
        description="Degenerate adiabatic perturbation theory toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = subs.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for key, opt in OPTIONS.items():
            if opt.command not in (None, name):
                continue
            flag = "--" + key.replace("_", "-")
            if opt.kind.convert is None:
                sp.add_argument(flag, action="store_true", default=None,
                                help=opt.help)
            else:
                sp.add_argument(flag, type=opt.kind.convert, help=opt.help,
                                choices=MODELS if key == "model" else None)
    return parser


# the first class that a raised error is an instance of gives the exit code
EXIT_CODES = {ConfigError: 2, NonHermitianInput: 2, InsufficientSweep: 2,
              GapCollapse: 3, DegeneracyChanged: 4, OSError: 5, DaptError: 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _validate(_merge_config(args))
        _write(cfg, args.command, *COMMANDS[args.command](cfg))
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items()
                    if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
