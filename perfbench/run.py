#!/usr/bin/env python3
"""End-to-end benchmark runner for the Fig. 2 engine.

Run one workload (builds the benchmark binary first, from the checkout's
own sources):

    python3 perfbench/run.py --workload fig2-flow --seed 1 --seconds 20 --trace 0

It prints a table of every metric the run measured (name, unit, sample
count), the correctness gates and the run metadata, then, as the last
line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.

Collect a result set (every workload, several seeds) and compare two:

    python3 perfbench/run.py sweep --out .bench_results/parent --seeds 1-10
    python3 perfbench/run.py compare .bench_results/parent .bench_results/change \\
        --claim ingest_cpu_us_per_update@fig2-flow

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
``.bench_build``); WAL and checkpoint scratch files to ``.bench_run``,
removed when the run ends.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Build the benchmark binary; return its path (exits 1 on failure)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release" / "perfbench"


def tool_version(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def metadata():
    rev = tool_version(["git", "rev-parse", "HEAD"])
    dirty = tool_version(["git", "status", "--porcelain"]) not in ("", "unknown")
    return {
        "rustc": tool_version(["rustc", "-V"]),
        "git_rev": rev,
        "git_dirty": dirty if rev != "unknown" else "unknown",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_once(binary, workload, seed, seconds, trace):
    """Run the binary once; return its full record (exits 1 on a crash)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", ".bench_run"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {workload} exited {p.returncode} without a record")
    record = json.loads(lines[-1])
    record["meta"].update(metadata())
    return record


def result_line(record, trace):
    """Reduce a full record to the benchmark's result object. A traced
    record holds only the layer rows its workload books; every other
    per-layer metric of BENCHMARK.json reads 0 (the layer did not run).
    Every end-to-end metric must be present and positive."""
    s = spec()
    correct = bool(record["correct"])
    if trace:
        metrics = {m["name"]: {"value": record["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                   for m in s["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
                   for m in s["end_to_end"] if m["name"] in record["metrics"]}
        bad = [m["name"] for m in s["end_to_end"]
               if not metrics.get(m["name"], {"value": 0})["value"] > 0]
        if bad:
            print(f"perfbench: end-to-end metrics missing or not positive: {bad}",
                  file=sys.stderr)
            correct = False
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_table(record):
    print(f"workload {record['workload']}  seed {record['seed']}")
    print(f"{'metric':<26}{'value':>16}  {'unit':<10}{'samples':>8}")
    for name, m in sorted(record["metrics"].items()):
        print(f"{name:<26}{m['value']:>16.6g}  {m['unit']:<10}{m['samples']:>8}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_frac':<26}{failed / attempted:>16.6g}  "
          f"{'ratio':<10}{attempted:>8}")
    if "layers" in record:
        print(f"\n{'per-layer (traced)':<36}{'value':>16}")
        for name, v in sorted(record["layers"].items()):
            print(f"{name:<36}{v:>16.6g}")
    for g in record["gates"]:
        if not g["ok"]:
            print(f"GATE FAILED {g['name']}: {g['detail']}")
    print(f"gates: {sum(g['ok'] for g in record['gates'])}/{len(record['gates'])} passed")
    if record["meta"].get("loadgen_behind"):
        print("FLAGGED: the load generator fell behind its schedule")
    print("meta: " + json.dumps(record["meta"], sort_keys=True))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def cmd_run(args):
    binary = build()
    record = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    result = result_line(record, args.trace)
    print_table(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def cmd_sweep(args):
    s = spec()
    binary = build()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for seed in parse_seeds(args.seeds):
        for w in (w["name"] for w in s["workloads"]):
            record = run_once(binary, w, seed, s["run_seconds"], args.trace)
            result = result_line(record, args.trace)
            ok &= result["correct"]
            with open(out / f"{w}.jsonl", "a") as f:
                f.write(json.dumps({"record": record, "result": result}) + "\n")
            e2e = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: correct={result['correct']} {e2e}", flush=True)
    return 0 if ok else 1


def load_set(path):
    """workload -> list of full records, in run order."""
    sets = {}
    for f in sorted(Path(path).glob("*.jsonl")):
        for line in f.read_text().splitlines():
            rec = json.loads(line)["record"]
            sets.setdefault(rec["workload"], []).append(rec)
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_compare(args):
    """choosing-metrics §6 and §8. Every metric x workload row: the
    change's median may be worse than the parent's by at most the bound,
    and a row whose parent quartile spread exceeds the bound is
    'unresolved' unless every change run beats every parent run. The
    claimed row needs >= 9/10 pairwise wins (runs paired in seed order,
    ties count for neither) and a median gap wider than the parent's quartile
    spread. The change may not fail a larger share of operations.
    Workload-specific metrics, which BENCHMARK.json does not bound, take
    its widest bound."""
    s = spec()
    e2e = {m["name"]: m for m in s["end_to_end"]}
    widest = max(m["bound"] for m in e2e.values())
    parent, change = load_set(args.parent), load_set(args.change)
    claim = tuple(args.claim.split("@")) if args.claim else None
    ok = True
    print(f"{'workload':<18}{'metric':<22}{'parent':>12}{'change':>12}{'better by':>10}"
          f"{'p.spread':>10}  verdict")
    for w in sorted(set(parent) & set(change)):
        names = set(parent[w][0]["metrics"]) & set(change[w][0]["metrics"])
        for name in sorted(names) + ["failed_frac"]:
            def by_seed(recs):
                if name == "failed_frac":
                    return {r["seed"]: r["failed"] / r["attempted"] for r in recs}
                return {r["seed"]: r["metrics"][name]["value"] for r in recs}
            pd, cd = by_seed(parent[w]), by_seed(change[w])
            pv, cv = list(pd.values()), list(cd.values())
            p1, pm, p3 = quartiles(pv)
            cm = statistics.median(cv)
            if name == "failed_frac":
                verdict = "ok" if cm <= pm else "MORE FAILURES"
                ok &= cm <= pm
                print(f"{w:<18}{name:<22}{pm:>12.4g}{cm:>12.4g}{'':>20}  {verdict}")
                continue
            m = e2e.get(name, {"better": "higher" if name.endswith("_per_s") else "lower",
                               "bound": widest})
            lower = m["better"] == "lower"
            gain = (pm - cm) / pm if lower else (cm - pm) / pm
            spread = (p3 - p1) / pm
            beats_all = max(cv) < min(pv) if lower else min(cv) > max(pv)
            if spread > m["bound"] and not beats_all:
                verdict = "unresolved"
            elif -gain > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "no regression"
            if claim == (name, w):
                pairs = list(zip((pd[k] for k in sorted(pd)), (cd[k] for k in sorted(cd))))
                wins = sum((c < p) if lower else (c > p) for p, c in pairs)
                met = wins >= 0.9 * len(pairs) and gain > 0 and abs(cm - pm) > p3 - p1
                verdict = (f"claim {'MET' if met else 'NOT MET'}: {wins}/{len(pairs)} pairwise "
                           f"wins, median gap {abs(cm - pm):.4g} vs parent IQR {p3 - p1:.4g}")
                ok &= met
            print(f"{w:<18}{name:<22}{pm:>12.4g}{cm:>12.4g}{gain:>+10.1%}{spread:>10.1%}  {verdict}")
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("sweep", "compare"):
        ap = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "sweep":
            ap.add_argument("--out", required=True)
            ap.add_argument("--seeds", default="1-10")
            ap.add_argument("--trace", type=int, default=0)
            return cmd_sweep(ap.parse_args(sys.argv[2:]))
        ap.add_argument("parent")
        ap.add_argument("change")
        ap.add_argument("--claim", help="metric@workload the change claims to improve")
        return cmd_compare(ap.parse_args(sys.argv[2:]))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
