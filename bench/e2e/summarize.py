"""Prints the metrics of bench_e2e result files, one line per metric.

usage: python3 bench/e2e/summarize.py RESULT.json...

Untraced results of one workload are pooled: each end-to-end metric prints
as "workload metric median unit", followed by the IQR as a share of the
median and the run count when there is more than one run (the spread the
bounds in BENCHMARK.json are set from). Traced results print their
per-layer metrics. Exits 1 if any run was incorrect.
"""

import json
import statistics
import sys
from collections import defaultdict


def main(paths):
    groups = defaultdict(list)
    ok = True
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        run = result["run"]
        groups[(run["workload"], run["trace"])].append(result)
        if not result["correct"]:
            ok = False
            print(f"INCORRECT {path}: verify_ok={result['verify_ok']} "
                  f"wrong_reads={result['wrong_reads']}")
    if groups:
        first = next(iter(groups.values()))[0]
        host = first["host"]
        print("# host: " + ", ".join(f"{k}={v}" for k, v in host.items()) +
              f", flush_policy={first['run']['flush_policy']}")
    for (workload, trace), results in groups.items():
        run = results[0]["run"]
        print(f"# {workload} {'traced' if trace else 'untraced'}: "
              f"{len(results)} run(s), window {run['window_s']} s, warm-up "
              f"{run['warmup_s']} s, samples "
              + json.dumps(results[0]["samples"]))
        values = defaultdict(list)
        units = {}
        for result in results:
            for name, metric in result["detail"].items():
                if trace and "." not in name:
                    continue  # the traced pass reports layers only
                values[name].append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"{workload} {name} {med:.6g} {units[name]}"
            if len(vals) > 1 and med:
                q = statistics.quantiles(vals, n=4)
                iqr = 100 * (q[2] - q[0]) / abs(med)
                line += f" iqr={iqr:.2f}% n={len(vals)}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
