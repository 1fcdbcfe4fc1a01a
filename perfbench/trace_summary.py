#!/usr/bin/env python3
"""Summarises perfbench trace files: host self time per layer.

A traced run (`--trace 1`) writes perfbench/out/trace-<workload>-seed<n>.jsonl:
one line per span (name, start, end, self time, parent, session), one per
counter (calls and busy time of a per-quantum or per-decision call) and a
closing summary line. This prints, for the traced measurement window,

* self time per layer (the name before the first dot: soc, governors,
  core, campaign, browser, coworkloads, sim-core) as ms and share of the
  window; the window's own self time is the benchmark's loop around the
  calls;
* the per-layer metrics under the names BENCHMARK.json gives them;
* the set-up spans, and trace.overhead_pct (traced vs untraced throughput
  of the same batches).

    python3 perfbench/trace_summary.py [trace.jsonl ...]

Without arguments it reads every file in perfbench/out/.
"""

import glob
import json
import sys
from collections import defaultdict


def load(path):
    spans, counters, summary = [], {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if rec["kind"] == "span":
                spans.append(rec)
            elif rec["kind"] == "counter":
                counters[rec["name"]] = rec
            else:
                summary = rec
    return spans, counters, summary


def inside(spans, root_index):
    """Indices of the spans below span `root_index`."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out, stack = [], [root_index]
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(children[i])
    return out


def per_call(total, calls):
    return total / calls if calls else 0.0


def summarise(path):
    spans, counters, summary = load(path)
    print(f"== {path}")
    windows = [i for i, s in enumerate(spans) if s["name"] == "window"]
    if not windows:
        print("  no traced window")
        return
    root = windows[0]
    window_ns = spans[root]["end_ns"] - spans[root]["start_ns"]
    by_name = defaultdict(lambda: [0, 0, 0])  # count, total, self
    for i in inside(spans, root):
        s = spans[i]
        entry = by_name[s["name"]]
        entry[0] += 1
        entry[1] += s["end_ns"] - s["start_ns"]
        entry[2] += s["self_ns"]

    layers = defaultdict(int)
    for name, (_, _, self_ns) in by_name.items():
        layer = "harness" if name == "window" else name.split(".")[0]
        layers[layer] += self_ns
    for name, c in counters.items():
        if c["charged"]:
            layers[name.split(".")[0]] += c["busy_ns"]
    print(f"  window {window_ns / 1e9:.3f} s; self time per layer:")
    for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {ns / 1e6:>10.1f} ms {ns / window_ns:>7.1%}")

    def counter(name):
        c = counters.get(name, {"calls": 0, "busy_ns": 0})
        return c["calls"], c["busy_ns"]

    def span(name):
        count, total, self_ns = by_name.get(name, (0, 0, 0))
        return count, total, self_ns

    metrics = {}
    calls, busy = counter("soc.step")
    metrics["soc.step.calls"] = calls
    metrics["soc.step.ns_per_quantum"] = per_call(busy, calls)
    metrics["soc.restore.ns"] = per_call(span("soc.restore")[1], span("soc.restore")[0])
    metrics["soc.migrate.calls"] = counter("soc.migrate")[0]
    calls, busy = counter("governors.decide")
    metrics["governors.decide.calls"] = calls
    metrics["governors.decide.ns"] = per_call(busy, calls)
    for profile in ("msm8974", "biglittle"):
        calls, busy = counter(f"core.decide.{profile}")
        candidates = counter(f"core.candidates.{profile}")[0]
        infeasible = counter(f"core.infeasible.{profile}")[0]
        metrics[f"core.decide.calls.{profile}"] = calls
        metrics[f"core.decide.ns.{profile}"] = per_call(busy, calls)
        metrics[f"core.candidates_per_decision.{profile}"] = per_call(candidates, calls)
        metrics[f"core.ns_per_candidate.{profile}"] = per_call(busy, candidates)
        metrics[f"core.infeasible_decision_pct.{profile}"] = per_call(infeasible * 100, calls)
    count, _, self_ns = span("campaign.load")
    metrics["campaign.load.self_ns"] = per_call(self_ns, count)
    metrics["campaign.merge.ns"] = per_call(span("campaign.merge")[1], span("campaign.merge")[0])
    metrics["campaign.warmup_s"] = span("campaign.warmup")[1] / 1e9
    metrics["campaign.warmup_pct"] = span("campaign.warmup")[1] / window_ns * 100
    for name in ("browser.spawn", "coworkloads.spawn", "sim-core.record"):
        count, total, _ = span(name)
        metrics[f"{name}.ns"] = per_call(total, count)
    print("  per-layer metrics:")
    for name, value in metrics.items():
        print(f"    {name:<40} {value:>16.6g}")

    print("  set-up:")
    for s in spans:
        if s["parent"] is not None and spans[s["parent"]]["name"] == "setup":
            print(f"    {s['name']:<40} {(s['end_ns'] - s['start_ns']) / 1e9:>12.3f} s")
    if "trace.overhead_pct" in summary:
        print(f"  trace.overhead_pct {summary['trace.overhead_pct']:.2f}")


def main():
    paths = sys.argv[1:] or sorted(glob.glob("perfbench/out/*.jsonl"))
    if not paths:
        sys.exit("no trace files; run the benchmark with --trace 1 first")
    for path in paths:
        summarise(path)


if __name__ == "__main__":
    main()
