"""conecenter benchmark: one command, four seeded closed-loop workloads.

    python3 perfbench/run.py --workload {cli,solve,large_m,oracle} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  One client runs ops back to back, in
one process (the cli workload starts one child process per op, one at a
time), until S seconds have passed at a block boundary of the workload's
cycle.  Every op's output is checked.  The run prints one line
per metric, then one JSON object as its last line: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  BENCHMARK.json lists both; perfbench/README.md explains them.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads; every child process inherits them
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# Printed by every run but not BENCHMARK.json metrics: ops_per_s spreads too
# widely from run to run on a shared host, and op_ms.p90 needs 100 ops.
PRINTED_ONLY = {"op_ms.p90": "ms", "ops_per_s": "1/s"}


@dataclass
class Record:
    item: object
    seconds: float
    fails: list


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "solve", "large_m", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args):
    """Imports, inputs and one warm-up op of each kind: everything before the first timed op."""
    import workloads

    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[args.workload](args.seed, refs)
    for item in wl.warmup:
        wl.run(item)
    return wl, refs, time.perf_counter() - T0


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def calib_ms() -> float:
    """Median of five runs of a fixed loop that touches no conecenter code."""
    import numpy as np
    from layers import median_s

    def loop():
        acc = 0
        for i in range(100_000):
            acc += i * i
        np.sort(np.random.default_rng(0).random(100_000))

    return 1e3 * median_s(loop, budget=0.0, reps=5)


def timed_op(run, check, item) -> Record:
    start = time.perf_counter()
    try:
        out, fails = run(item), None
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        fails = [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    if fails is None:
        try:
            fails = check(item, out)
        except Exception as exc:  # output the check cannot read is wrong output
            fails = [f"check raised {type(exc).__name__}: {exc}"]
    return Record(item, seconds, fails)


def loop(wl, seconds, traced_run=None):
    """Closed loop over the workload's cycle, block by block, until ``seconds``
    have passed at a block boundary.  With ``traced_run`` each item runs twice,
    traced and untraced, in alternating order."""
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        for item in wl.blocks[i % len(wl.blocks)]:
            if traced_run is None:
                plain.append(timed_op(wl.run, wl.check, item))
            else:
                pair = [(plain, wl.run), (traced, traced_run)]
                for out, run in pair if len(plain) % 2 == 0 else pair[::-1]:
                    out.append(timed_op(run, wl.check, item))
        i += 1
    return plain, traced


def summarize(records):
    """End-to-end numbers of one list of records, plus the failure breakdown."""
    from checks import wrong_outputs

    ms = sorted(1e3 * r.seconds for r in records)
    ok = [r for r in records if not r.fails]
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else ms[0]
    unexpected = [r for r in records if wrong_outputs(r.fails) and not r.item.known_defect]
    return {
        "n": len(ms),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": p90 if sum(x > p90 for x in ms) >= 10 else None,
        "ops_per_s": len(ok) / (sum(ms) / 1e3),
        "fail_frac": (len(records) - len(ok)) / len(records),
        "failed": len(records) - len(ok),
        "known": sum(1 for r in records if r.fails and r.item.known_defect),
        "unexpected": unexpected,
    }


def print_failures(records) -> None:
    seen = set()
    for r in records:
        if r.fails and r.item.base.name not in seen:
            seen.add(r.item.base.name)
            tag = "known defect" if r.item.known_defect else "fail"
            print(f"  {tag} {r.item.base.name}: {'; '.join(r.fails[:3])}")


def describe(wl, args) -> None:
    import numpy
    import scipy

    print(f"workload {wl.name}: {wl.op}; seed {args.seed}; cycle of "
          f"{sum(len(b) for b in wl.blocks)} items in {len(wl.blocks)} blocks")
    print("env " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
          + f" python={platform.python_version()} numpy={numpy.__version__}"
          + f" scipy={scipy.__version__} nproc={os.cpu_count()}")


def check_counts(refs):
    """Machine-independent counts, taken twice: they must repeat exactly."""
    import layers

    first, second = layers.counts(), layers.counts()
    for name, value in first.items():
        if value != refs["seed_counts"].get(name):
            print(f"{name} = {value} differs from the seed commit's {refs['seed_counts'].get(name)}")
    if first != second:
        print(f"counts did not repeat: {first} then {second}")
    return first, first == second


def trace_metrics(tracer, plain, traced, missing) -> dict:
    from tracing import LAYERS, layer_of, self_times

    per_layer = dict.fromkeys(LAYERS, 0.0)
    by_name = self_times(tracer.spans)
    for name, seconds in by_name.items():
        per_layer[layer_of(name)] += seconds
    out = {f"self_ms_per_op.{layer}": 1e3 * s / len(traced) for layer, s in per_layer.items()}
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in plain) - 1.0)
    out["trace.missing_names"] = len(missing)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with open(ROOT / ".perfbench" / "trace.json", "w", encoding="utf-8") as handle:
        json.dump({"self_s_by_span": by_name, "missing": missing, "spans": tracer.spans}, handle)
    for name, seconds in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  self {name}: {1e3 * seconds / len(traced):.4f} ms/op")
    if missing:
        print(f"  missing wrapped names: {', '.join(missing)}")
    return out


def declared(kind) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(records, values, kind, repeated) -> None:
    """Print every metric, the failures, and the result line of the run."""
    units = declared(kind)
    every_unit = {**declared("per_layer"), **declared("end_to_end"), **PRINTED_ONLY}
    for name, value in values.items():
        print(f"{name} = {value!r} {every_unit.get(name, '')}")
    summary = summarize(records)
    print(f"fail_frac = {summary['fail_frac']!r} ({summary['failed']} of {summary['n']}: "
          f"{summary['known']} known defects, {len(summary['unexpected'])} with wrong output)")
    print_failures(records)
    print(json.dumps({
        "correct": not summary["unexpected"] and repeated,
        "attempted": summary["n"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "conecenter" / "__init__.py").is_file() or not (ROOT / "polygons").is_dir():
        print(f"error: {ROOT} holds no src/conecenter package and polygons/ directory", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl, refs, own_setup = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    describe(wl, args)
    calib_before = calib_ms()
    if args.trace:
        return traced_main(args, wl, refs, calib_before)
    setups = [own_setup] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    records, _ = loop(wl, args.seconds)
    calib_after = calib_ms()
    counts, repeated = check_counts(refs)
    summary = summarize(records)
    print(f"{summary['n']} ops; setup_s is the median of {SETUP_SAMPLES} set-ups: {setups}")
    values = {**counts, "host.calib_ms.before": calib_before, "host.calib_ms.after": calib_after,
              "op_ms.p50": summary["op_ms.p50"]}
    if summary["op_ms.p90"] is None:
        print("op_ms.p90 omitted: fewer than 10 samples lie beyond it")
    else:
        values["op_ms.p90"] = summary["op_ms.p90"]
    values.update({"ops_per_s": summary["ops_per_s"], "setup_s": statistics.median(setups)})
    report(records, values, "end_to_end", repeated)
    return 0


def traced_main(args, wl, refs, calib_before) -> int:
    import layers
    from tracing import Tracer

    tracer = Tracer()

    def traced_run(item):
        if wl.run_traced is not None:
            return wl.run_traced(item, tracer)
        tracer.install()
        try:
            with tracer.span("op"):
                return wl.run(item)
        finally:
            tracer.uninstall()

    values = layers.probes()
    plain, traced = loop(wl, args.seconds, traced_run)
    values["host.calib_ms.before"] = calib_before
    values["host.calib_ms.after"] = calib_ms()
    counts, repeated = check_counts(refs)
    values.update(counts)
    values.update(trace_metrics(tracer, plain, traced, sorted(tracer.missing)))
    print(f"{len(traced)} op pairs: traced op_ms.p50 = {summarize(traced)['op_ms.p50']!r} ms, "
          f"untraced {summarize(plain)['op_ms.p50']!r} ms")
    report(plain + traced, values, "per_layer", repeated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
