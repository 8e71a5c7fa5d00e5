"""qseries benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload qgamma-campaign --seed 1 \
        --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory. The workload
runs in this process on one thread and is timed in CPU seconds; set-up time
is measured in fresh child interpreters. With ``--trace 0`` the last line of
stdout holds the end-to-end metrics. With ``--trace 1`` it holds the
per-layer metrics of rounds that each run untraced and then traced.
``--workload all`` runs every workload, each in its own fresh process.

The outputs are checked before any number is reported (see
``workloads.check``). The exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_RUNS = 9
SETUP_CODE = ("import time\n"
              "t0 = time.process_time()\n"
              "import qseries\n"
              "qseries.full_registry()\n"
              "t1 = time.process_time()\n"
              "import speed\n"
              "print(t1 - t0, speed.reference(), speed.reference())\n")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("ok_frac", "ratio"),
              ("min_agree_digits", "digits"), ("peak_rss_mb", "MiB"))


def measure_setup() -> float:
    """Median CPU seconds to import qseries and build the registry, each
    time in a fresh interpreter (after one unmeasured run that writes
    bytecode), scaled to nominal speed by two reference loops run after
    it in the same interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        setup_s, *ref_s = map(float, out.stdout.split())
        if i:
            times.append(speed.scaled([setup_s], ref_s)[0])
    return statistics.median(times)


def run_rounds(rounds, reg, error_type, calibrate=False):
    """Run the ops against ``reg``; return (op, output or exception) pairs
    and each op's CPU seconds. The workload is single-threaded, so CPU
    time is its cost without the waits that other processes cause. With
    ``calibrate``, the seconds are scaled to nominal machine speed by
    reference loops run before the first op and after each op."""
    clock = time.process_time
    done, op_s = [], []
    ref_s = [speed.reference()] if calibrate else []
    for rnd in rounds:
        for op in rnd:
            t = clock()
            try:
                result = op.call(reg)
            except error_type as exc:
                result = exc
            op_s.append(clock() - t)
            done.append((op, result))
            if calibrate:
                ref_s.append(speed.reference())
    return done, speed.scaled(op_s, ref_s) if calibrate else op_s


def measure(rounds, reg, seconds, error_type):
    """Run passes over the same rounds for about ``seconds`` of wall time:
    another pass starts only while the mean pass time says it will end in
    time. Returns every pass's outputs and every pass's per-op seconds."""
    done, passes = [], []
    start = time.perf_counter()
    while True:
        more, op_s = run_rounds(rounds, reg, error_type, calibrate=True)
        done += more
        passes.append(op_s)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return done, passes


def tail(op_s):
    """(percentile, ms) of the highest order statistic with at least ten
    samples above it; with 20 or fewer samples, where that one would not
    lie above the median, the maximum."""
    ordered = sorted(op_s)
    n = len(ordered)
    if n <= 20:
        return 100.0, 1000 * ordered[-1]
    return 100.0 * (n - 10) / n, 1000 * ordered[n - 11]


def timing(passes):
    """ops_per_s, op_ms_p50, the tail's percentile and op_ms_tail from the
    per-op seconds of whole passes over one design. p50 and the tail are
    taken over each op's median across the passes, so that their ranks
    depend on the design alone, not on how many passes a fast commit
    makes."""
    per_op = [statistics.median(times) for times in zip(*passes)]
    return (sum(map(len, passes)) / sum(map(sum, passes)),
            1000 * statistics.median(per_op)) + tail(per_op)


def end_to_end(args, workloads, plan, reg, error_type):
    """Untraced run: the end-to-end metrics and the gate's findings."""
    setup_s = measure_setup()
    n = workloads.design_size(args.workload, args.seconds)
    rounds = plan.rounds(n)
    done, passes = measure(rounds, reg, args.seconds, error_type)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checked = workloads.check(args.workload, done)
    first = workloads.digest(args.workload, done[:len(rounds[0])])
    ops_per_s, p50_ms, pct, tail_ms = timing(passes)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_ms_p50": p50_ms,
        "op_ms_tail": tail_ms,
        "ok_frac": 1 - checked.errors / len(done),
        "min_agree_digits": checked.min_agree_digits,
        "peak_rss_mb": peak_kib / 1024,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} x {n} "
          f"rounds, {len(done)} ops in {sum(map(sum, passes)):.3f} CPU s")
    for name, unit in END_TO_END:
        print(f"  {name:18s} {values[name]:.6g} {unit}")
    print(f"  {'error_frac':18s} {checked.errors / len(done):.6g} ratio")
    print(f"  op_ms_tail is p{pct:.1f} over {len(passes[0])} ops")
    print(f"  first-round digest sha256 {first}")
    return done, checked, values, dict(END_TO_END)


def per_layer(args, workloads, plan, reg, error_type):
    """Traced run: each round runs untraced, then again with the tracer
    installed, so that both see the same inputs and machine state; the
    per-layer metrics and the gate's findings."""
    import tracer as tracing

    tr = tracing.Tracer()
    traced_reg = tr.traced_registry(reg)
    plain, done = [], []
    plain_s = traced_s = 0.0
    for rnd in plan.rounds(workloads.design_size(args.workload,
                                                 args.seconds / 2)):
        out, op_s = run_rounds([rnd], reg, error_type)
        plain += out
        plain_s += sum(op_s)
        with tr:
            out, op_s = run_rounds([rnd], traced_reg, error_type)
        done += out
        traced_s += sum(op_s)
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tr.write_spans(span_file)

    checked = workloads.check(args.workload, done)
    checked.problems += workloads.check(args.workload, plain).problems
    if (workloads.digest(args.workload, done)
            != workloads.digest(args.workload, plain)):
        checked.problems.append("traced outputs differ from untraced")
    values = tr.metrics()
    primitive = tr.primitive_terms()
    values["identity.terms_reported_share"] = (
        checked.terms_reported / primitive if primitive else 0.0)
    values["trace.ops_per_s_gap"] = 1 - plain_s / traced_s
    units = {name: unit for name, unit, _ in tracing.per_layer_names()}
    print(f"workload {args.workload} seed {args.seed}: {len(done)} ops, "
          f"{traced_s:.3f} CPU s traced, {plain_s:.3f} untraced; "
          f"{len(tr.spans)} spans in {span_file}")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:.6g} {unit}")
    return done, checked, values, units


def run_workload(args, workloads) -> int:
    from qseries import QSeriesError, full_registry

    reg = full_registry()
    plan = workloads.make_plan(args.workload, args.seed, reg)
    measure_run = per_layer if args.trace else end_to_end
    done, checked, values, units = measure_run(args, workloads, plan, reg,
                                               QSeriesError)
    for problem in checked.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checked.problems,
        "attempted": len(done),
        "failed": checked.errors,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def run_child(workload, seed, seconds, trace):
    """Run one workload in a fresh process; return its stdout and the
    result on its last line. Raises if the process fails."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stdout}{out.stderr}")
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def run_all(args, names) -> int:
    """Every workload in its own fresh process; metrics prefixed by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        stdout, result = run_child(name, args.seed, args.seconds, args.trace)
        sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import qseries
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import qseries from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if SRC not in Path(qseries.__file__).resolve().parents:
        print(f"perfbench: qseries was imported from {qseries.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
