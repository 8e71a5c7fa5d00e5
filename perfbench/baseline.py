"""Measure the benchmark over several seeds and write ``baseline.json``.

    python3 perfbench/baseline.py --seeds 1-10 --held-out 1001 --seconds 30

For each workload this runs ``run.py`` once per seed with tracing off and
records each end-to-end metric's median and quartiles. It then makes one
traced run at the first seed for the per-layer metrics. Finally it records
the first-round digests at the first seed and at the held-out seed, which
is meant to be kept for checking later claims.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent

WHY = {
    "qseries-campaign": "phi, psi_bilateral and short pochhammer_inf "
                        "products at q < 0.8, with no Levin, Jackson or "
                        "gamma work.",
    "classical-campaign": "Levin acceleration and classical_gamma with no "
                          "q-products, so a Pochhammer change must leave it "
                          "unmoved.",
    "qgamma-campaign": "gamma_q, phi and Jackson sums whose integrands make "
                       "thousands of short pochhammer_inf calls; thm-5.3 "
                       "takes most of its CPU time.",
    "near-one": "the q -> 1 regime no campaign reaches: few pochhammer_inf "
                "calls of 10^3 to 10^4 factors each.",
}


def run_once(workload, seed, seconds, trace):
    """The result of one run and its first-round digest, if it printed one."""
    stdout, result = run.run_child(workload, seed, seconds, trace)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed\n"
                         + stdout)
    digest = next((ln.split()[-1] for ln in stdout.splitlines()
                   if "digest sha256" in ln), None)
    return result, digest


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--held-out", type=int, default=1001)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WHY))
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    baseline = {"seeds": args.seeds, "held_out_seed": args.held_out,
                "seconds": args.seconds, "workloads": {},
                "in_benchmark_json": [w["name"] for w in listed["workloads"]]}
    for workload in args.workloads.split(","):
        values, digest = {}, None
        for seed in args.seeds:
            result, d = run_once(workload, seed, args.seconds, 0)
            digest = digest or d
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{workload} seed {seed}: ops_per_s "
                  f"{result['metrics']['ops_per_s']['value']:.4g}",
                  flush=True)
        end_to_end = {}
        for name, (unit, vals) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"unit": unit, "median": med, "q1": q1,
                                "q3": q3, "values": vals}
        traced, _ = run_once(workload, args.seeds[0], args.seconds, 1)
        _, held_digest = run_once(workload, args.held_out, args.seconds, 0)
        baseline["workloads"][workload] = {
            "why": WHY[workload],
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"]
                          for k, m in traced["metrics"].items()},
            "first_round_digest": {str(args.seeds[0]): digest,
                                   str(args.held_out): held_digest},
        }
    args.out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
