"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py [--runs 10]

Runs ``bench/run.py`` (the command in BENCHMARK.json) once per seed for
every workload, one run at a time, with a fresh seed for every run. Per set,
workload and end-to-end metric it reports the median and the quartile
spread (q3 - q1) / median. It then says whether each spread other than
that of setup_s is within the metric's bound from BENCHMARK.json, and
whether the two sets' medians differ, in either direction, by no more than
the bound. setup_s is exempt from the spread check: a run times only a
few short set-ups, so their median spreads wide between runs, and its
bound limits how far its median may move between the sets. Exits 1 if a
run fails or a check does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def one_run(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(args.runs):
            for w in names:
                seed = 1000 * (s + 1) + i
                wall, r = one_run(spec, w, seed)
                print(f"set {s + 1} {w} seed {seed} ({wall:.0f} s): "
                      f"correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in r["metrics"].items()),
                      flush=True)
                results[w][s].append(r)

    ok = True
    print(f"\n{'workload':12} {'metric':15} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}"
                     for s in range(SETS)) + "  verdict")
    for w in names:
        for m in metrics:
            first, second = (summarize([r["metrics"][m["name"]]["value"]
                                        for r in results[w][s]])
                             for s in range(SETS))
            notes = []
            if m["name"] != "setup_s":
                wide = [s + 1 for s, x in enumerate((first, second))
                        if x["spread"] > m["bound"]]
                if wide:
                    notes.append(f"spread over bound in set {wide}")
                elif max(first["spread"], second["spread"]) > m["bound"] / 3:
                    notes.append("spread over a third of the bound")
            moved = abs(second["median"] - first["median"]) / first["median"]
            if moved > m["bound"]:
                notes.append(f"medians differ by {moved:.1%}")
            ok &= not any("over bound" in n or "differ" in n for n in notes)
            print(f"{w:12} {m['name']:15} {m['bound']:6.2f} "
                  + " ".join(f"{x['median']:11.4g} {x['spread']:8.2%}"
                             for x in (first, second))
                  + "  " + ("; ".join(notes) or "ok"))
    bad = [(w, s) for w in names for s in range(SETS)
           for r in results[w][s] if not r["correct"]]
    if bad:
        print(f"runs reporting correct=false: {len(bad)}")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
