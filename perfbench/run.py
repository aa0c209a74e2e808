"""relalg benchmark: one workload, timed from outside the library.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

A run sets up its inputs from --seed (import, input generation, one
untimed warm-up analysis), then repeats whole rounds of the workload's
analyses for --seconds, checks every output outside the timed region, and
counts each analysis with its slowest time over the rounds. The set-up is
repeated at even points of the run, between rounds, and setup_s is the
slowest of those set-ups. It prints one JSON line last: the end-to-end
metrics with --trace 0, the per-layer metrics from spans around each
library call with --trace 1. The full record, spans included, goes to
perfbench/results/. --quick runs every workload once on tiny inputs and
checks the printed metric names and units against BENCHMARK.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 5
IMPORT_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "analysis_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

# Ratio metrics: numerator and denominator counters of the same call.
RATIOS = {"kept_ratio": ("kept", "seeds"), "distinct_ratio": ("distinct", "words")}


def import_seconds():
    """Wall time of `import relalg` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import relalg; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def cli_import_seconds():
    """Median wall time of `python -c "import relalg.cli"` processes."""
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import relalg.cli"], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"), check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def usage(children):
    return resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)


def cpu_seconds(children):
    ru = usage(children)
    return ru.ru_utime + ru.ru_stime


def build(workload, seed, quick, tmp):
    rng = np.random.default_rng(seed)
    if workload == "cli":
        import cliwork

        return cliwork.cli(rng, quick, str(ROOT), tmp)
    import workloads

    return workloads.WORKLOADS[workload](rng, quick)


def layer_value(name, busy, counts, fails, rounds, cli_import):
    """One per-layer metric, per round of the workload; 0 where unused."""
    call, _, what = name.rpartition(".")
    if name == "cli.import_s":
        return cli_import
    if what == "s":
        return busy.get(call, 0.0) / rounds
    if what == "failed":
        return sum(v for op, v in fails.items() if op == call or op.startswith(call + ".")) / rounds
    if what.endswith("_per_s"):
        b = busy.get(call, 0.0)
        return counts.get(f"{call}.{what[:-len('_per_s')]}", 0) / b if b else 0.0
    if what in RATIOS:
        num, den = (counts.get(f"{call}.{k}", 0) for k in RATIOS[what])
        return num / den if den else 0.0
    return counts.get(name, 0) / rounds


def set_up(workload, seed, quick, tmp):
    """(analyses, seconds): import, inputs from the seed, one warm-up analysis."""
    t_import = 0.0 if workload == "cli" else import_seconds()
    t0 = time.perf_counter()
    analyses = build(workload, seed, quick, tmp)
    analyses[0].run(Tracer(False))
    return analyses, t_import + time.perf_counter() - t0


def run(workload, seed, seconds, trace, quick, layer_names):
    children = workload == "cli"
    reps = 1 if quick else SETUP_REPS
    RESULTS.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS)
    try:
        analyses, t_setup = set_up(workload, seed, quick, tmp)
        setup = [t_setup]

        tr = Tracer(trace)
        check_rng = np.random.default_rng([seed, 1])
        rounds, by_analysis = [], {}
        attempted = failed = 0
        fails, problems = Counter(), []
        start, paused = time.perf_counter(), 0.0
        while True:
            wall = cpu = 0.0
            for a in analyses:
                tr.begin_analysis(a.label)
                c0, t0 = cpu_seconds(children), time.perf_counter()
                try:
                    out, error = a.run(tr), None
                except Exception as exc:  # a crash is a failed operation, reported below
                    out, error = None, f"{type(exc).__name__}: {exc}"
                t1, c1 = time.perf_counter(), cpu_seconds(children)
                tr.end_analysis()
                wall += t1 - t0
                cpu += c1 - c0
                by_analysis.setdefault(a.label, []).append((t1 - t0, c1 - c0))
                try:
                    verdicts = [("analysis." + a.label, error)] if error else a.check(out, check_rng)
                except Exception as exc:  # output the checks cannot read is wrong output
                    verdicts = [("check." + a.label, f"{type(exc).__name__}: {exc}")]
                del out
                for op, problem in verdicts:
                    attempted += 1
                    if problem:
                        failed += 1
                        fails[op] += 1
                        problems.append((a.label, op, problem, op in a.faults))
            rounds.append((wall, cpu))
            measured = time.perf_counter() - start - paused
            if quick or measured >= seconds:
                break
            # Later set-ups sit between rounds at even points of the run, so
            # that they meet the same phases of the host's speed as the rounds.
            if len(setup) < reps and measured >= len(setup) * seconds / reps:
                t0 = time.perf_counter()
                setup.append(set_up(workload, seed, quick, tmp)[1])
                paused += time.perf_counter() - t0
        while len(setup) < reps:
            setup.append(set_up(workload, seed, quick, tmp)[1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    peak = usage(children).ru_maxrss / 1024.0
    # Each analysis counts with its slowest time over the rounds: the host's
    # sustained speed, which repeats from run to run (see the README).
    slowest_wall = [max(w for w, _ in v) for v in by_analysis.values()]
    slowest_cpu = [max(c for _, c in v) for v in by_analysis.values()]
    end_to_end = {
        "setup_s": max(setup),
        "run_s": sum(slowest_wall),
        "analysis_p50_s": statistics.median(slowest_wall),
        "cpu_s": sum(slowest_cpu),
        "peak_rss_mib": peak,
    }
    per_layer = {}
    if trace:
        cli_import = cli_import_seconds() if children else 0.0
        busy = tr.busy()
        per_layer = {n: layer_value(n, busy, tr.counts, fails, len(rounds), cli_import)
                     for n in layer_names}
    unexpected = [p for p in problems if not p[3]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "rounds": len(rounds), "round_wall_s": [w for w, _ in rounds],
        "round_cpu_s": [c for _, c in rounds], "setup_runs_s": setup,
        "analysis_s": {k: [w for w, _ in v] for k, v in by_analysis.items()},
        "analysis_cpu_s": {k: [c for _, c in v] for k, v in by_analysis.items()},
        "end_to_end": end_to_end, "per_layer": per_layer,
        "failures": sorted({(lbl, op, msg, named) for lbl, op, msg, named in problems}),
        "python": sys.version.split()[0], "numpy": np.__version__,
    }
    if trace:
        record.update(tr.to_json())
    name = f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for lbl, op, msg, named in record["failures"]:
        kind = "named fault" if named else "WRONG"
        print(f"{workload}: {kind}: {lbl}: {op}: {msg}", file=sys.stderr)
    return record


def result_line(record, spec):
    if record["trace"]:
        values, units = record["per_layer"], {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, units = record["end_to_end"], END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def quick(spec):
    """Every workload once on tiny inputs; metric names and units must match."""
    ok = True
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if want_e2e != END_TO_END:
        print(f"quick: end_to_end in BENCHMARK.json {want_e2e} != {END_TO_END}", file=sys.stderr)
        ok = False
    layer_names = [m["name"] for m in spec["per_layer"]]
    for w in spec["workloads"]:
        t0 = time.perf_counter()
        record = run(w["name"], 1, 0, True, True, layer_names)
        for trace in (False, True):
            line = result_line(dict(record, trace=trace), spec)
            want = spec["per_layer"] if trace else spec["end_to_end"]
            got = [(n, m["unit"]) for n, m in line["metrics"].items()]
            if got != [(m["name"], m["unit"]) for m in want] or not all(
                isinstance(m["value"], (int, float)) for m in line["metrics"].values()
            ):
                print(f"quick: {w['name']}: metrics do not match BENCHMARK.json", file=sys.stderr)
                ok = False
        ok &= record["correct"]
        print(f"quick: {w['name']}: correct={record['correct']} attempted={record['attempted']} "
              f"failed={record['failed']} in {time.perf_counter() - t0:.1f} s")
    print(json.dumps({"quick": ok}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "relalg" / "__init__.py").is_file():
        print(f"perfbench: no src/relalg under {ROOT}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    if args.quick:
        return quick(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    layer_names = [m["name"] for m in spec["per_layer"]]
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), False, layer_names)
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
