"""Run one workload under several seeds and report how much each metric spreads.

    python3 bench/steadiness.py --workload constant-large --seeds 1-10

Each run is `bench/run.py --trace 0` for the `run_seconds` of
BENCHMARK.json. For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median, next
to the metric's bound in BENCHMARK.json. The runs are sequential, one
`bench/run.py` process at a time; a summary is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = summarize(values) if len(values) > 1 else {"median": values[0]}
        s = summary[name]
        bound = bounds.get(name)
        flag = ""
        if bound and "spread" in s:
            flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO NOISY")
        print(f"{name:40s} median {s['median']:.6g}  q1 {s.get('q1', 0):.6g}  q3 {s.get('q3', 0):.6g}  "
              f"spread {s.get('spread', 0):.4f}  bound {bound}  {flag}")
    out = ROOT / ".bench_out" / f"steadiness-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds(args.seeds), "seconds": seconds, "summary": summary,
                               "runs": runs}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
