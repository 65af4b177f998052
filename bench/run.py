"""dapt benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload model-sweep --seed 1 --seconds 30 --trace 0

Inputs come from --seed. Commands run one after another through
``dapt.cli.main(argv)`` in this process, which starts no thread or process
of its own; the program's ``sweep`` pool and BLAS threads are part of what
is measured. Every command's outputs are checked against the closed forms
in ``inputs.py``. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
End-to-end times are in reference seconds: wall seconds scaled by the
run's median time of a fixed calibration kernel (``calibrate``). README.md
in this directory lists the workloads and metrics.
"""
import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True          # leave no caches in the checkout
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import inputs  # noqa: E402  (this directory is sys.path[0])
import spans  # noqa: E402

ORDER = 2
SETUP_REPS = 5
SLOPE_TOL = 0.1          # a fitted order this far from p + 1 is wrong
SERIES_TOL = 1e-4        # ragged-file: order-2 state vs closed form
ORACLE_TOL = 1e-3        # ragged-file: reference evolution vs closed form
ERROR_TOL = 1e-2         # series_error and oracle_error of any workload
RESOLUTION = 1e-10       # distances at or below this are roundoff and
                         # read as this value, so roundoff never gates
CALIBRATION_S = 0.05     # the calibration kernel's time at reference speed
CAL_MATRICES = np.random.default_rng(0).standard_normal((64, 4, 4))
CAL_MATRICES = CAL_MATRICES + CAL_MATRICES.transpose(0, 2, 1)
CAL_GENERATOR = 0.1j * CAL_MATRICES[0]


def import_dapt():
    """Import dapt from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dapt
        import dapt.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import dapt from {src}: {exc}")
    if not Path(dapt.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: dapt imported from {dapt.__file__}, not {src}")
    return dapt


def finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def calibrate() -> float:
    """Wall time of a fixed kernel that shares no code with dapt: batched
    small eigensolves, a pure-Python loop and a stepped 4x4 complex
    evolution, the mix the commands run. Its median over a run measures
    how fast the host is in that run."""
    t0 = time.perf_counter()
    for _ in range(75):
        _, vecs = np.linalg.eigh(CAL_MATRICES)
        vecs @ vecs.transpose(0, 2, 1)
        total = 0.0
        for k in range(200):
            total += 0.5 * k
    state = np.eye(4, dtype=complex)
    for _ in range(3000):
        state = state + 0.01 * (CAL_GENERATOR @ state)
        state = state / np.abs(state).max()
    return time.perf_counter() - t0


def read_csv(path) -> dict:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(names, data.T))


def complex_cols(cols: dict, prefix: str, dim: int) -> np.ndarray:
    return np.stack([cols[f"{prefix}_{j}_re"] + 1j * cols[f"{prefix}_{j}_im"]
                     for j in range(dim)], axis=1)


def sup_dist(a, b) -> float:
    return float(np.linalg.norm(a - b, axis=-1).max())


def fitted_slope(v, r) -> float:
    return float(np.polyfit(np.log10(v), np.log10(r), 1)[0])


def distances(err):
    """err (n, dim, starts) -> (worst case over unit starts, start 0) of
    the sup over nodes of the state error."""
    return (float(np.linalg.norm(err, 2, axis=(1, 2)).max()),
            float(np.linalg.norm(err[:, :, 0], axis=1).max()))


class Workload:
    """Inputs, set-up, closed-form references and output checks."""

    cycle: list              # (label, argv, velocity points)
    fit_v: tuple             # velocities of the slope fit
    check_v: float           # velocity of series_error and oracle_error
    oracle_v: tuple = ()     # further velocities the checks need oracles at

    def __init__(self, dapt, work: Path):
        self.dapt = dapt
        self.csv, self.json = str(work / "out.csv"), str(work / "out.json")
        self.outputs = ["--out-csv", self.csv, "--out-json", self.json]

    def setup(self):
        """Input read plus Workspace.build, as the CLI does it."""
        grid, samples = self.dapt.read_hamiltonian(self.path)
        return self.dapt.Workspace.build(samples=samples, grid=grid,
                                         order=ORDER)

    def oracle(self, ws, v):
        """(worst-case, label-0) distance of Workspace.exact from the
        closed form; worst case over the unit starts in the ground level."""
        starts = ws.path.blocks[0][0]
        ref = self.family.exact(ws.grid.s, v, starts)
        return distances(np.stack([ws.exact(v, label=h)[0]
                                   for h in range(starts.shape[1])], axis=2)
                         - ref)

    def residuals(self, ws, velocities) -> dict:
        """v -> per order p, (worst-case, label-0) sup distance of the
        order-p partial sum from the closed form."""
        starts = ws.path.blocks[0][0]            # ground frame at s = 0
        d0 = starts.shape[1]
        w = self.family.frames(ws.grid.s)
        table = {}
        for v in velocities:
            ref = self.family.exact(ws.grid.s, v, starts, w=w)
            rows = []
            for p in range(ws.order + 1):
                psi = ws.series(v, order=p).vectors(ws.path)[:, :d0]
                rows.append(distances(np.swapaxes(psi, 1, 2) - ref))
            table[v] = rows
        return table

    def prepare(self, ws) -> dict:
        """Accuracy figures against the closed form; keeps what the
        per-command checks need."""
        inputs.self_check(self.family, self.check_v)
        self.table = self.residuals(ws, sorted({*self.fit_v, self.check_v}))
        self.oracles = {v: self.oracle(ws, v)
                        for v in {*self.oracle_v, self.check_v}}
        slope_error = max(
            abs(fitted_slope(self.fit_v, [self.table[v][p][0]
                                          for v in self.fit_v]) - (p + 1))
            for p in range(ORDER + 1))
        return {"slope_error": slope_error,
                "series_error": self.table[self.check_v][ORDER][0],
                "oracle_error": self.oracles[self.check_v][0]}

    def check(self, label: str) -> bool:
        with open(self.json) as fh:
            summary = json.load(fh)
        cols = read_csv(self.csv)
        return finite(summary) and all(np.isfinite(c).all()
                                       for c in cols.values()) \
            and self.check_command(label, summary, cols)


class Sweep(Workload):
    def __init__(self, dapt, work, seed, velocities, source):
        super().__init__(dapt, work)
        self.fit_v = self.oracle_v = velocities
        shuffled = [f"{v:g}" for v in velocities]
        random.Random(seed).shuffle(shuffled)
        argv = ["sweep", *source, "--order", str(ORDER),
                "--v-list", ",".join(shuffled), *self.outputs]
        self.cycle = [("sweep", argv, len(velocities))]

    def check_command(self, label, summary, cols) -> bool:
        """Each residual in the CSV is the label-0 distance of the series
        from the program's reference, so it may differ from the distance
        to the closed form by at most the reference's own distance."""
        vs = cols["velocity"]
        if not np.allclose(vs, self.fit_v, rtol=1e-15, atol=0.0):
            return False
        for p in range(ORDER + 1):
            r = cols[f"residual_order{p}"]
            for v, got in zip(self.fit_v, r):
                want = self.table[v][p][1]
                if abs(got - want) > self.oracles[v][1] + 1e-9 * want + 1e-13:
                    return False
            slope = summary["fits"][f"order{p}"]["slope"]
            if abs(slope - fitted_slope(vs, r)) > 1e-9:
                return False
        return True


class ModelSweep(Sweep):
    """Closed-form route: no file, no eigensolver, no propagator."""

    def __init__(self, dapt, work, seed):
        super().__init__(dapt, work, seed,
                         (0.002, 0.003, 0.005, 0.008, 0.012, 0.02, 0.03, 0.05),
                         ["--model", "gamma", "--grid-n", "16001"])
        self.family = inputs.gamma_family()
        self.check_v = 0.02

    def setup(self):
        return self.dapt.Workspace.build(
            model=self.dapt.GammaModel(*inputs.GAMMA_PARAMS),
            grid=self.dapt.Grid.uniform(16001), order=ORDER)

    def oracle(self, ws, v):
        # the model route's reference is its own closed form, label 0 only
        e = max(sup_dist(ws.exact(v)[0], self.family.exact(
            ws.grid.s, v, ws.start_vector(0))), RESOLUTION)
        return e, e


class FileSweep(Sweep):
    """Sampled-file route of the V-rotated Gamma model."""

    def __init__(self, dapt, work, seed):
        self.path = str(work / "gamma.txt")
        super().__init__(dapt, work, seed, (0.01, 0.02, 0.05, 0.1),
                         ["--hamiltonian-file", self.path])
        self.family = inputs.gamma_file(dapt, self.path, seed)
        self.check_v = 0.02


class RaggedFile(Workload):
    """Dim-16 file with ragged levels; the non-sweep subcommands."""

    fit_v = (0.01, 0.02, 0.05, 0.1)

    def __init__(self, dapt, work, seed):
        super().__init__(dapt, work)
        self.path = str(work / "ragged.txt")
        self.family = inputs.ragged_file(dapt, self.path, seed)
        self.check_v = 0.05 / (2 * math.pi)         # the CLI's v = w / 2 pi
        common = ["--hamiltonian-file", self.path, "--w", "0.05",
                  "--order", str(ORDER), *self.outputs]
        self.cycle = [(c, [c, *common], 1)
                      for c in ("validate", "holonomy", "dapt", "evolve")]

    def prepare(self, ws) -> dict:
        acc = super().prepare(ws)
        psi = self.family.exact(ws.grid.s, self.check_v, ws.start_vector(0))
        self.coeff = np.einsum("kij,ki->kj", ws.path.basis().conj(), psi)
        return acc

    def check_command(self, label, summary, cols) -> bool:
        dim = self.coeff.shape[1]
        if label == "validate":
            return summary["adiabatic_ok"] is True
        if label == "holonomy":
            return max(summary["unitarity_deviation"].values()) <= 1e-10
        series = complex_cols(cols, f"order{ORDER}", dim)
        if sup_dist(series, self.coeff) > SERIES_TOL:
            return False
        if label == "dapt":
            pop = cols["ground_population"]
            return bool((pop >= 0).all() and (pop <= 1 + 1e-9).all())
        exact = complex_cols(cols, "exact", dim)
        res = cols["residual"]
        return sup_dist(exact, self.coeff) <= ORACLE_TOL and \
            abs(summary["sup_residual"] - res.max()) <= 1e-12 * res.max()


WORKLOADS = {"model-sweep": ModelSweep, "file-sweep": FileSweep,
             "ragged-file": RaggedFile}


def run_commands(wl, main, seconds, tracer=None) -> dict:
    """Whole cycles of the workload's commands for about ``seconds``, each
    command after one timing of the calibration kernel."""
    durations, labels, failures, points, calibrations = [], [], [], 0, []
    start = time.perf_counter()
    cycles = 0
    while True:
        for label, argv, n_points in wl.cycle:
            for path in (wl.csv, wl.json):
                if os.path.exists(path):
                    os.remove(path)
            calibrations.append(calibrate())
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = tracer.command(label, main, argv) if tracer \
                        else main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
            durations.append(time.perf_counter() - t0)
            labels.append(label)
            try:
                ok = rc == 0 and wl.check(label)
            except (OSError, KeyError, ValueError) as exc:
                print(f"bench: {label}: {exc!r}", file=sys.stderr)
                ok = False
            if ok:
                points += n_points
            else:
                failures.append(label)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return {"durations": durations, "labels": labels,
                    "failures": failures, "points": points,
                    "cycles": cycles, "calibrations": calibrations}


def tail(durations):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(durations)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * k / (len(xs) - 1) if len(xs) > 1 else 0.0


def cycle_seconds(stats) -> float:
    """Sum over the cycle's commands of each command's median time."""
    by_label = {}
    for label, d in zip(stats["labels"], stats["durations"]):
        by_label.setdefault(label, []).append(d)
    return sum(statistics.median(ds) for ds in by_label.values())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "threads": {k: os.environ.get(k, "unset")
                        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}


def measure(dapt, args, work: Path):
    wl = WORKLOADS[args.workload](dapt, work, args.seed)
    setups, setup_cals = [], []
    for _ in range(SETUP_REPS):
        setup_cals.append(calibrate())
        t0 = time.perf_counter()
        ws = wl.setup()
        setups.append(time.perf_counter() - t0)
    accuracy = wl.prepare(ws)
    del ws
    accurate = accuracy["slope_error"] <= SLOPE_TOL and \
        accuracy["series_error"] <= ERROR_TOL and \
        accuracy["oracle_error"] <= ERROR_TOL
    env = environment()
    print("env:", json.dumps(env))
    main = dapt.cli.main

    if args.trace:
        plain = run_commands(wl, main, args.seconds / 2)
        tracer = spans.Tracer()
        spans.install(tracer, dapt)
        try:
            traced = run_commands(wl, main, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path, env)
        print(f"spans: {len(tracer.spans)} written to {path}")
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (
            statistics.median(traced["durations"])
            - statistics.median(plain["durations"]), "s")
        runs = [plain, traced]
    else:
        stats = run_commands(wl, main, args.seconds)
        # times in reference seconds: wall seconds scaled by how much slower
        # than reference speed the calibration kernel ran in this run
        calibration = statistics.median(setup_cals + stats["calibrations"])
        scale = CALIBRATION_S / calibration
        value, pct = tail(stats["durations"])
        p50 = statistics.median(stats["durations"])
        metrics = {
            "command_s.p50": (p50 * scale, "s"),
            "command_s.tail": (value * scale, "s"),
            "points_per_s": (stats["points"] / stats["cycles"]
                             / (cycle_seconds(stats) * scale), "points/s"),
            "setup_s": (statistics.median(setups) * scale, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "slope_error": (accuracy["slope_error"], "slope"),
            "series_error": (max(accuracy["series_error"], RESOLUTION), "norm"),
            "oracle_error": (max(accuracy["oracle_error"], RESOLUTION), "norm"),
            # not gated, recorded with the result: what command_s.tail is,
            # and the unscaled wall time with the scale's base
            "command_s.tail.percentile": (pct, "%"),
            "command_s.samples": (len(stats["durations"]), "count"),
            "wall.command_s.p50": (p50, "s"),
            "calibration_s": (calibration, "s"),
        }
        runs = [stats]

    attempted = sum(len(r["durations"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {len(failures) / attempted:.4g} "
          f"({len(failures)} of {attempted}: "
          f"{', '.join(sorted(set(failures))) or 'none'})")
    return {"correct": bool(accurate), "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    dapt = import_dapt()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(dapt, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
