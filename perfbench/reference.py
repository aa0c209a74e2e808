"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py --seeds 1-10 --seconds 30

Runs every workload of BENCHMARK.json untraced once per seed and traced on
the first seed, each run a fresh `perfbench/run.py` process started as the
BENCHMARK.json command, then prints markdown tables: the median and quartiles of
every end-to-end metric with its spread (quartile distance over median),
the failed share, the traced per-layer figures and the tracing overhead:
the traced run_s minus the untraced one at the same seed, and the span
bookkeeping alone (spans per round times the cost of one traced call).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    line = json.loads(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                     check=True).stdout.splitlines()[-1])
    with open(HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return line, json.load(fh)


def span_cost(calls=200_000):
    """Extra seconds per call that tracing adds, on a call doing nothing."""
    per = []
    for enabled in (False, True):
        tr = Tracer(enabled)
        t0 = time.perf_counter()
        for _ in range(calls):
            tr.call("x", int)
        per.append((time.perf_counter() - t0) / calls)
    return per[1] - per[0]


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="30")
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(args.seeds)

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    traced, overhead, shares = {}, {}, {}
    for w in names:
        lines = [run(w, s, args.seconds, 0) for s in seeds]
        shares[w] = sorted({(l["failed"], l["attempted"], l["correct"]) for l, _ in lines})
        for m in bounds:
            v = [l["metrics"][m]["value"] for l, _ in lines]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            unit = lines[0][0]["metrics"][m]["unit"]
            print(f"| {w} | {m} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds[m]} |", flush=True)
        tline, trec = run(w, seeds[0], args.seconds, 1)
        traced[w] = tline["metrics"]
        base = lines[0][1]["end_to_end"]["run_s"]
        spans = sum(1 for sp in trec["spans"] if sp["parent"] is not None) / trec["rounds"]
        overhead[w] = (base, trec["end_to_end"]["run_s"], spans)

    print("\n| workload | failed / attempted per run | correct |")
    print("|---|---|---|")
    for w in names:
        for failed, attempted, correct in shares[w]:
            print(f"| {w} | {failed} / {attempted} ({failed / attempted:.4f}) | {correct} |")

    print(f"\n| per-layer metric (seed {seeds[0]}, per round) | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in spec["per_layer"]:
        vals = [traced[w][m["name"]]["value"] for w in names]
        if any(vals):
            print(f"| {m['name']} | {m['unit']} | " + " | ".join(f"{v:.4g}" for v in vals) + " |")

    cost = span_cost()
    print(f"\n| workload (seed {seeds[0]}) | run_s untraced | run_s traced | difference "
          f"| spans per round | bookkeeping per round ({cost * 1e6:.2f} us a span) |")
    print("|---|---|---|---|---|---|")
    for w in names:
        base, traced_s, spans = overhead[w]
        extra = traced_s - base
        print(f"| {w} | {base:.4g} | {traced_s:.4g} | {extra:+.4g} s ({extra / base:+.1%}) "
              f"| {spans:.0f} | {spans * cost * 1e3:.3g} ms ({spans * cost / base:.3%}) |")


if __name__ == "__main__":
    main()
