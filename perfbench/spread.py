"""Run the benchmark on ten seeds and record the spread of its metrics.

    python3 perfbench/spread.py stream-dma

Each run is one ``run.py --trace 0`` invocation of ``run_seconds`` (from
``BENCHMARK.json``) with its own seed, 0 to 9.  For every end-to-end
metric the record ``records/<workload>.json`` holds the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the host fingerprint
of the first run, so a later comparison is made only against a matching
host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    args = parser.parse_args(argv)
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results, host = [], None
    for seed in SEEDS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=True,
            cwd=HERE.parent).stdout.strip().splitlines()
        host = host or json.loads(out[-2])["perfbench"]["host"]
        result = json.loads(out[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}"
                  for k, v in result["metrics"].items()), flush=True)

    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med,
                         "values": values}
        print(f"{name:28s} median {med:.6g}  iqr/median "
              f"{metrics[name]['spread']:.4f}")
    record = {"workload": args.workload, "seconds": seconds,
              "seeds": [SEEDS[0], SEEDS[-1]],
              "all_correct": all(r["correct"] for r in results),
              "host": host, "metrics": metrics}
    out_path = HERE / "records" / f"{args.workload}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
