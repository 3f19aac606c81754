#!/usr/bin/env python3
"""Summarises and compares bench_e2e result files (standard library only).

Each result file is what `bench_e2e --json-out FILE` writes: one run, or
{"runs": [...]} for several. Files are taken in the order given, which
should be the order they were run in.

One set -- median, quartiles and spread of every (workload, metric):

    compare.py BENCHMARK.json --base base/*.json

Two sets -- adds a verdict per end-to-end metric: ok, regressed or
unresolved (the base set's spread is wider than the metric's bound):

    compare.py BENCHMARK.json --base base/*.json --head head/*.json

A claimed gain is checked with the pairing rule: at least 10 runs of each
side in alternating order, the head better in at least 9 of 10 pairs (ties
count for neither), and a median gap wider than the base quartile spread:

    compare.py BENCHMARK.json --base ... --head ... --claim serve-cold:p50_ms

--ledger OUT writes the summaries (plus any --traced files) as one JSON file.
The exit code is 1 when a metric regressed or a claim is not met.
"""
import argparse
import json
import statistics
import sys


def load_runs(paths):
    """{(workload, trace): {metric: [values in file order]}}, plus the env
    header of each key's first run."""
    table, envs = {}, {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for run in doc.get("runs", [doc]):
            key = (run["workload"], run.get("trace", 0))
            envs.setdefault(key, run.get("env", {}))
            metrics = table.setdefault(key, {})
            for name, m in run["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return table, envs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def worse_by(base, head, better):
    """How much worse head's median is than base's, as a share of base's."""
    if not base["median"]:
        return 0.0
    gap = (head["median"] - base["median"]) / abs(base["median"])
    return gap if better == "lower" else -gap


def is_better(h, b, better):
    return h < b if better == "lower" else h > b


def verdict(spec, base_values, head_values):
    base, head = summary(base_values), summary(head_values)
    if spread(base) > spec["bound"]:
        if all(is_better(h, b, spec["better"])
               for h in head_values for b in base_values):
            return "ok (better in every run)"
        return "unresolved"
    return "regressed" if worse_by(base, head, spec["better"]) > spec["bound"] \
        else "ok"


def claim(spec, base_values, head_values):
    pairs = list(zip(base_values, head_values))
    if len(pairs) < 10:
        return False, f"{len(pairs)} pairs (need 10)"
    wins = sum(is_better(h, b, spec["better"]) for b, h in pairs)
    base, head = summary(base_values), summary(head_values)
    gap = abs(head["median"] - base["median"])
    iqr = base["q3"] - base["q1"]
    met = (wins >= 0.9 * len(pairs) and gap > iqr
           and is_better(head["median"], base["median"], spec["better"]))
    return met, (f"{wins}/{len(pairs)} pairs won, median gap {gap:.6g} vs "
                 f"base IQR {iqr:.6g}")


def fmt(s):
    return (f"{s['median']:>14.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
            f"n={s['n']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("benchmark", help="BENCHMARK.json")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", default=[])
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--traced", nargs="+", default=[])
    parser.add_argument("--ledger", metavar="OUT")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base, envs = load_runs(args.base)
    head, head_envs = load_runs(args.head) if args.head else ({}, {})
    status = 0
    for key in sorted(base):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'timed'})")
        for name, values in base[key].items():
            s = summary(values)
            spec = specs.get(name)
            line = f"  {name:<26} base {fmt(s)} spread {spread(s):.3f}"
            if spec is not None:
                line += f" (bound {spec['bound']})"
            head_values = head.get(key, {}).get(name)
            if head_values:
                line += f"\n  {'':<26} head {fmt(summary(head_values))}"
                if spec is not None:
                    v = verdict(spec, values, head_values)
                    line += f"  -> {v}"
                    status |= v == "regressed"
            print(line)
        for spec in bench["per_layer"] if trace else bench["end_to_end"]:
            if spec["name"] not in base[key]:
                print(f"  {spec['name']:<26} MISSING")
                status = 1

    for item in args.claim:
        workload, metric = item.split(":", 1)
        spec = specs[metric]
        met, why = claim(spec, base[(workload, 0)][metric],
                         head[(workload, 0)][metric])
        print(f"claim {item}: {'met' if met else 'not met'} ({why})")
        status |= not met

    if args.ledger:
        def sets(table, env):
            return {f"{w}{'/traced' if t else ''}":
                    dict({n: dict(summary(v), values=v) for n, v in m.items()},
                         env=env[(w, t)])
                    for (w, t), m in sorted(table.items())}
        traced, traced_envs = (load_runs(args.traced) if args.traced
                               else ({}, {}))
        ledger = {"base": sets(base, envs)}
        if head:
            ledger["head"] = sets(head, head_envs)
        if traced:
            ledger["traced"] = sets(traced, traced_envs)
        with open(args.ledger, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
