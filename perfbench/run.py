"""tsgkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload automate --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for what each stresses and bypasses):
`train`, `automate`, `synthesize`; `all` runs each of them, untraced and
traced, in a child process of its own.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the program is traced from outside,
the object holds the per-layer metrics, and the spans are written to
`.perfbench_spans/<workload>.jsonl.gz`.  The lines before it give the
environment and a readable table.  Run from the root of a checkout.
"""

import os

# Pin BLAS to one thread before numpy is imported: model bytes and times
# depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")

# Set-up repeats for at least this long (and at least SETUP_MIN_REPS times);
# its median is `setup_s`.  One set-up takes 2-20 ms, too short to time alone.
SETUP_SECONDS = 1.0
SETUP_MIN_REPS = 15
CHILD_TIMEOUT_S = 900

# Per-layer metrics: name -> unit.  `.s` is self time and counts are per
# pass (one fit, one pass over all guides, one pass over the spec set);
# the four loaders are per set-up.
LAYER_METRICS = {
    "ingest.clean_document.s": "s",
    "ingest.segment.s": "s",
    "ingest.segment.statements": "count",
    "vectorize.encode.s": "s",
    "vectorize.build_vocabulary.s": "s",
    "siamese.train.s": "s",
    "siamese.sample_pairs.s": "s",
    "siamese.embed_batch.s": "s",
    "siamese.embed_batch.calls": "count",
    "siamese.embed_batch.rows": "count",
    "identify.classify.s": "s",
    "identify.classify.calls": "count",
    "identify.compute_prototypes.s": "s",
    "extract.extract.s": "s",
    "extract.extract.calls": "count",
    "extract.extract_repeating.s": "s",
    "extract.extract_repeating.tuples": "count",
    "extract.extract.missing": "count",
    "clauses.tag_clauses.s": "s",
    "clauses.tag_clauses.calls": "count",
    "dsl.eval_program.s": "s",
    "dsl.eval_program.calls": "count",
    "dsl.eval_program.failures": "count",
    "synthesis.synthesize.s": "s",
    "synthesis.synthesize.max_s": "s",
    "synthesis.generate_atoms.s": "s",
    "synthesis.generate_atoms.calls": "count",
    "synthesis.generate_atoms.atoms": "count",
    "pipeline.schematize.s": "s",
    "pipeline.emit_workflow.s": "s",
    "pipeline.schematized_to_json.s": "s",
    "pipeline.workflow_to_json.s": "s",
    "pipeline.automatable_frac": "fraction",
    "siamese.load_model.s": "s",
    "extract.load_registry.s": "s",
    "identify.load_prototypes.s": "s",
    "vectorize.load_vocabulary.s": "s",
    "trace.overhead_frac": "fraction",
}
SETUP_LAYERS = ("siamese.load_model", "extract.load_registry", "identify.load_prototypes", "vectorize.load_vocabulary")
RATIOS = (
    ("siamese.embed_batch.rows", "siamese.embed_batch.calls"),
    ("dsl.eval_program.failures", "dsl.eval_program.calls"),
    ("synthesis.generate_atoms.atoms", "synthesis.generate_atoms.calls"),
    ("extract.extract.missing", "extract.extract.calls"),
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def blas_threads():
    """Threads the loaded OpenBLAS uses, or the pinned setting if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (pinned)"


def timed_passes(wl, seconds: float, tracer=None):
    """Passes until `seconds` have gone by; with a tracer, untraced and
    traced passes alternate, so drift hits both sides alike."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        side = traced if tracer is not None and len(traced) < len(plain) else plain
        if side is traced:
            tracer.install()
        try:
            side.append(wl.run_pass(tracer if side is traced else None))
        finally:
            if side is traced:
                tracer.uninstall()
        if perf_counter() - start >= seconds and (tracer is None or traced):
            return plain, traced


def end_to_end(setup_times, passes):
    ops = [s for p in passes for s in p.op_seconds]
    rates = [p.work / sum(p.op_seconds) for p in passes if p.op_seconds]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (1000 * statistics.median(ops), "ms"),
        # The slowest operation of each pass: synthesize's specs range from
        # 1 ms to seconds, so a percentile over them falls between spec sizes.
        "op_ms_max": (1000 * statistics.median(max(p.op_seconds) for p in passes if p.op_seconds), "ms"),
    }


def per_layer(tracer, setup_tracer, n_setups: int, plain, traced, extra):
    self_s, counts = tracer.layer_totals()
    setup_self_s, _ = setup_tracer.layer_totals()
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        layer, _, stat = name.rpartition(".")
        if layer in SETUP_LAYERS:
            metrics[name] = setup_self_s.get(layer, 0.0) / n_setups
        elif stat == "s":
            metrics[name] = self_s.get(layer, 0.0) / len(traced)
        elif unit == "count":
            metrics[name] = counts.get(name, 0) / len(traced)
    synthesized = "synthesis.synthesize" in self_s
    metrics["synthesis.synthesize.max_s"] = max(s for p in plain for s in p.op_seconds) if synthesized else 0.0
    plain_s = statistics.median(sum(p.op_seconds) for p in plain)
    traced_s = statistics.median(sum(p.op_seconds) for p in traced)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics.update(extra)
    metrics.setdefault("pipeline.automatable_frac", 0.0)
    return {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()}


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "tsgkit")):
        log(f"error: {SRC}/tsgkit not found; run from the root of a tsgkit checkout")
        return 2
    sys.path.insert(0, SRC)
    import tsgkit

    if not os.path.abspath(tsgkit.__file__).startswith(SRC + os.sep):
        log(f"error: imported tsgkit from {tsgkit.__file__}, not from {SRC}")
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = perf_counter()
        wl = WORKLOADS[args.workload](args.seed, workdir)
        log(f"inputs and preparation: {perf_counter() - t0:.2f} s")
        tracer = Tracer() if args.trace else None
        setup_tracer = Tracer() if args.trace else None

        setup_times = []
        started = perf_counter()
        while len(setup_times) < SETUP_MIN_REPS or perf_counter() - started < SETUP_SECONDS:
            if setup_tracer is not None:
                setup_tracer.install()
            try:
                t0 = perf_counter()
                wl.setup()
                setup_times.append(perf_counter() - t0)
            finally:
                if setup_tracer is not None:
                    setup_tracer.uninstall()
        warmup = wl.run_pass()
        plain, traced = timed_passes(wl, args.seconds, tracer)
        accuracy, checks, check_failures, extra = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass

    passes = plain + traced
    attempted = sum(len(p.op_seconds) + p.failures for p in [warmup] + passes) + checks
    failed = sum(p.failures for p in [warmup] + passes) + check_failures
    e2e = end_to_end(setup_times, plain)
    e2e["accuracy"] = (accuracy, "fraction")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")

    ops = [s for p in plain for s in p.op_seconds]
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[-1] if len(ops) > 1 else ops[0]
    beyond = sum(s > p90 for s in ops)
    print(f"tsgkit benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment:", json.dumps(environment()))
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "work_per_s": f"{wl.work_unit}/s, median of {len(plain)} untraced passes",
        "op_ms_p50": f"per {wl.op_unit}, {len(ops)} samples",
        "op_ms_max": f"slowest {wl.op_unit} of a pass, median of {len(plain)}; p90 {1000 * p90:.6g} ms, {beyond} beyond",
        "accuracy": "",
        "peak_rss_mb": "",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14}{value:>14.6g} {unit:<9}{notes[name]}")
    print(f"  {'failed_frac':<14}{failed / max(attempted, 1):>14.6g} {'fraction':<9}{failed}/{attempted}")
    print("work_per_s of each untraced pass:", json.dumps([p.work / sum(p.op_seconds) for p in plain if p.op_seconds]))
    metrics = e2e
    if tracer is not None:
        metrics = per_layer(tracer, setup_tracer, len(setup_times), plain, traced, extra)
        print(f"per layer, {len(traced)} traced passes:")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36}{value:>14.6g} {unit}")
        for num, den in RATIOS:
            a, b = metrics[num][0], metrics[den][0]
            ratio = f"{a / b:.4g}" if b else "n/a"
            print(f"  {num.rsplit('.', 1)[0]} {num.rsplit('.', 1)[1]}/{den.rsplit('.', 1)[1]} = {ratio}"
                  f" ({a:g} / {b:g} per pass)")
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"{args.workload}.jsonl.gz")
        tracer.write_spans(spans_path)
        print(f"spans of the traced passes: {os.path.relpath(spans_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    status = 0
    for workload in ("train", "automate", "synthesize"):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            status = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode or status
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "automate", "synthesize", "all"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (non-negative)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
