"""covertrelay benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload fig4_auto --seed 1 --seconds 20 --trace 0

Workloads: ``fig4_auto``, ``rate_sweep``, ``mc_detect`` (why each: BENCHMARK.json).
Each op drives ``covertrelay.cli.main(argv)`` in-process with its own
seed-generated config; ops run back to back (closed loop, one client, one
process) until ``--seconds`` have passed. Every op's output is checked
(exit code, CSV header and row count, finite values, validate report
structure), the first op is run twice to check byte-identical reruns, and
committed mpmath references give the true quadrature error on fixed probes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same ops
untraced and then traced (``tracing.Tracer``) and prints the per-layer
metrics, per op, plus the tracing overhead. The line before the last one is a
JSON report with provenance, the figure-CSV hashes, failure breakdowns, the
tail percentile and, when traced, the ROADMAP baseline-table comparison. The
last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
PACKAGE = SRC / "covertrelay"
WORK = ROOT / ".bench_work"
CACHE = ROOT / ".bench_cache"

SETUP_REPEATS = 5
IDENTITY_SEED = 20240
IDENTITY_FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Per-call figures of the ROADMAP baseline table (ms), for side-by-side display.
ROADMAP_MS = {
    "average_covert_rate": ("rates.average_covert_rate", None, 1.0),
    "expected_rate_h0": ("rates.expected_rate_h0", None, 0.10),
    "optimize_harvest_fraction": ("rates.optimize_harvest_fraction", None, 11.0),
    "simulate_covert_rate@1e6": ("montecarlo.simulate_covert_rate", 10**6, 83.0),
    "detection_curve@1e6": ("montecarlo.detection_curve", 10**6, 62.0),
    "optimal_threshold": ("detection.optimal_threshold", None, 0.002),
}


def die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Set-up: build, cold-start time, provenance, figure hashes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build() -> None:
    """Byte-compile the package, so cold starts measure imports, not compilation."""
    import compileall

    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        die("byte-compiling src/covertrelay failed")


def measure_setup() -> float:
    """Median time to import covertrelay.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import covertrelay.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            die(f"importing covertrelay.cli failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def figure_hashes(src_sha: str) -> dict:
    """sha256 of fig2-fig6 CSVs at the default config and the identity seed.

    A deterministic function of the source, so it is computed once per source
    tree in a child process (keeping this process's memory and caches clean)
    and cached under .bench_cache/.
    """
    cache = CACHE / f"figures-{src_sha[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    out = subprocess.run([sys.executable, str(HERE / "identity.py"), str(IDENTITY_SEED), *IDENTITY_FIGURES],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        die(f"figure hashing failed:\n{out.stderr}")
    hashes = json.loads(out.stdout.strip().splitlines()[-1])
    CACHE.mkdir(exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(hashes))
    os.replace(tmp, cache)
    return hashes


def git_sha() -> str | None:
    """HEAD commit read from .git without running git (absent in a plain checkout)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be queried."""
    import ctypes
    import numpy as np

    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cap_blas_threads() -> None:
    """Keep BLAS threads at or below the core count (must run before numpy loads)."""
    ncpu = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > ncpu:
            os.environ[var] = str(ncpu)


def provenance(src_sha: str) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_sha256": src_sha,
    }


# ---------------------------------------------------------------------------
# Timed ops
# ---------------------------------------------------------------------------

class Caches:
    """Every functools cache in the package: cleared before each op, stats kept."""

    def __init__(self, modules):
        self.caches = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info") \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    self.caches[f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"] = obj
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)

    def reset(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            cache.cache_clear()

    def hit_ratio(self, name: str) -> float:
        total = self.hits.get(name, 0) + self.misses.get(name, 0)
        return self.hits.get(name, 0) / total if total else 0.0


@dataclasses.dataclass
class OpRecord:
    index: int
    seconds: float
    digest: str   # sha256 of everything the op's calls wrote to stdout
    checks: list  # workloads.CallCheck per call

    @property
    def failed(self) -> bool:
        return any(c.failed for c in self.checks)

    @property
    def validation_failed(self) -> bool:
        return any(c.failed_checks for c in self.checks)

    @property
    def rows(self) -> int:
        return sum(c.rows for c in self.checks)


def run_op(op, cli, caches, quad_limit) -> OpRecord:
    from workloads import check_call, config_text, run_call

    path = WORK / f"op{op.index}.cfg"
    path.write_text(config_text(op.config))
    argvs = [[str(path) if a == "{config}" else a for a in argv] for argv in op.calls]
    caches.reset()
    gc.collect()
    t0 = time.perf_counter()
    # cli.main is looked up per call so that a traced window sees the wrapper.
    results = [run_call(lambda a: cli.main(a), argv, recipe) for argv, recipe in zip(argvs, op.recipes)]
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(b"\0".join(r.output for r in results)).hexdigest()
    return OpRecord(op.index, seconds, digest, [check_call(r, quad_limit) for r in results])


def run_window(workload, seed, seconds, cli, caches, quad_limit) -> list[OpRecord]:
    """Ops in seeded order, back to back, until `seconds` of wall time have passed."""
    from workloads import iter_ops

    records = []
    start = time.perf_counter()
    for op in iter_ops(workload, seed):
        records.append(run_op(op, cli, caches, quad_limit))
        if time.perf_counter() - start >= seconds:
            break
    caches.reset()
    return records


def tail_percentile(values: list[float]) -> dict | None:
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, -(-int(pct * n) // 100))  # nearest rank, ceil(pct/100 * n)
        value = ordered[rank - 1]
        beyond = sum(v > value for v in ordered)
        if beyond >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value_s": value, "samples": n, "beyond": beyond}
    return None


# ---------------------------------------------------------------------------
# Accuracy against the committed oracle
# ---------------------------------------------------------------------------

def probe_accuracy(quad_limit) -> tuple[dict, list]:
    """True relative errors on the oracle probes, and truthful-flagging violations."""
    import oracle

    refs = oracle.load_refs()
    rows, untruthful = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for entry in refs["probes"]:
            res, h0 = oracle.probe_rates(entry)
            c_ref, h_ref = float(entry["average_covert_rate"]), float(entry["expected_rate_h0"])
            c_err = abs(res.c_avg - c_ref) / abs(c_ref)
            h_err = abs(h0 - h_ref) / abs(h_ref)
            rows.append({"probe": entry["name"], "rate_true_err": c_err, "rate_quad_error": res.quad_error,
                         "h0_true_err": h_err})
            if c_err > quad_limit and not res.quad_error > quad_limit:
                untruthful.append(entry["name"])
    return {"dps": refs["dps"], "probes": rows}, untruthful


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(records, setup_s, accuracy) -> dict:
    durations = [r.seconds for r in records]
    probes = accuracy["probes"]
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rate_true_err_max": (max(p["rate_true_err"] for p in probes), "rel"),
        "h0_true_err_max": (max(p["h0_true_err"] for p in probes), "rel"),
    }


def per_layer(tr, caches, records, untraced) -> dict:
    """Per-op layer metrics from a traced window; `untraced` ran the same ops untraced."""
    n = len(records)
    g = tr.get
    m = {}

    def per_op(name, value, unit):
        m[name] = (value / n, unit)

    opt, h0, acr = g("rates.optimize_harvest_fraction"), g("rates.expected_rate_h0"), g("rates.average_covert_rate")
    per_op("rates.optimize.calls", opt.calls, "count/op")
    per_op("rates.optimize.self_s", opt.self_s, "s/op")
    m["rates.objective_evals_per_optimize"] = (
        h0.under / opt.calls if opt.calls else 0.0, "count")
    per_op("rates.expected_rate_h0.calls", h0.calls, "count/op")
    per_op("rates.expected_rate_h0.s", h0.total, "s/op")
    m["rates.expected_rate_h0.nodes_per_call"] = (h0.nodes / h0.calls if h0.calls else 0.0, "count")
    per_op("rates.average_covert_rate.calls", acr.calls, "count/op")
    per_op("rates.average_covert_rate.s", acr.total, "s/op")
    m["rates.average_covert_rate.nodes_per_call"] = (acr.nodes / acr.calls if acr.calls else 0.0, "count")
    per_op("rates.flagged", acr.flagged, "count/op")
    m["rates.quad_error_max"] = (acr.quad_error_max, "rel")

    for fn in ("snr_h0", "covert_snr_reduced", "covert_snr", "allocate_powers"):
        s = g(f"relaying.{fn}")
        per_op(f"relaying.{fn}.calls", s.calls, "count/op")
        per_op(f"relaying.{fn}.elements", s.elements, "count/op")
        per_op(f"relaying.{fn}.self_s", s.self_s, "s/op")
        m[f"relaying.{fn}.ns_per_element"] = (1e9 * s.total / s.elements if s.elements else 0.0, "ns")

    draw = g("params.ChannelDraw.__post_init__")
    per_op("params.channel_draw.count", draw.calls, "count/op")
    per_op("params.channel_draw.s", draw.total, "s/op")
    per_op("params.load_config.s", g("params.load_config").total, "s/op")

    csv_fns = ("experiments.csv_bytes", "experiments.write_csv")
    per_op("experiments.auto_fraction.hits", caches.hits.get("experiments._auto_fraction", 0), "count/op")
    per_op("experiments.auto_fraction.misses", caches.misses.get("experiments._auto_fraction", 0), "count/op")
    per_op("experiments.csv.bytes", g("experiments.csv_bytes").out_bytes, "B/op")
    per_op("experiments.csv.s", g("experiments.csv_bytes").total, "s/op")
    per_op("experiments.recipe.self_s", tr.layer_self("experiments", exclude=csv_fns), "s/op")

    per_op("detection.calls", tr.layer_calls("detection"), "count/op")
    per_op("detection.self_s", tr.layer_self("detection"), "s/op")
    m["detection.solve_phi_epsilon.hit_ratio"] = (caches.hit_ratio("detection.solve_phi_epsilon"), "ratio")

    blocks = sum(s.blocks for s in tr.stats.values())
    mc_self = tr.layer_self("montecarlo")
    per_op("montecarlo.blocks", blocks, "count/op")
    per_op("montecarlo.self_s", mc_self, "s/op")
    m["montecarlo.ns_per_block"] = (1e9 * mc_self / blocks if blocks else 0.0, "ns")

    per_op("validate.self_s", tr.layer_self("validate"), "s/op")
    per_op("validate.kstest_s", g("validate.stats.kstest").total, "s/op")
    per_op("validate.checks_failed", sum(len(c.failed_checks) for r in records for c in r.checks), "count/op")

    per_op("cli.self_s", tr.layer_self("cli"), "s/op")
    # Same seeded ops on both sides, so the per-op difference isolates the tracing cost.
    m["trace.overhead_s"] = (statistics.median(t.seconds - u.seconds for t, u in zip(records, untraced)), "s")
    m["trace.ops"] = (n, "count")
    return m


def roadmap_table(tr) -> list:
    rows = []
    for label, (name, blocks, roadmap_ms) in ROADMAP_MS.items():
        samples = tr.samples.get((name, blocks), [])
        rows.append({
            "what": label,
            "roadmap_ms": roadmap_ms,
            "measured_ms": 1e3 * statistics.median(samples) if samples else None,
            "calls": len(samples),
        })
    return rows


def summarize(records) -> dict:
    failures, validate_failures, call_failures = [], {}, []
    rate_rows = flagged = 0
    for r in records:
        for c in r.checks:
            rate_rows += c.rate_rows
            flagged += c.flagged
            for name in c.failed_checks:
                validate_failures[name] = validate_failures.get(name, 0) + 1
            if c.failed:
                call_failures.append({"op": r.index, "why": c.problems})
        if r.failed or r.validation_failed:
            failures.append(r.index)
    n = len(records)
    return {
        "ops": n,
        # failed_frac counts ops that raised, exited non-zero (validate's exit 1
        # included) or emitted an unexpected non-finite value.
        "failed_frac": len(failures) / n,
        "validate_failures_by_check": dict(sorted(validate_failures.items())),
        "broken_calls": call_failures[:10],
        "flagged_frac": flagged / rate_rows if rate_rows else None,
        "rate_rows": rate_rows,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="covertrelay benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        die(f"no covertrelay sources under {PACKAGE}; run from the repository root")
    cap_blas_threads()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")

    build()
    src_sha = source_hash()
    setup_s = None if args.trace else measure_setup()
    figures = figure_hashes(src_sha)

    from tracing import LAYERS, Tracer, snapshot

    cli = importlib.import_module("covertrelay.cli")
    modules = [importlib.import_module(f"covertrelay.{layer}") for layer in LAYERS]
    quad_limit = importlib.import_module("covertrelay.rates").QUAD_ERROR_LIMIT
    caches = Caches(modules)
    WORK.mkdir(exist_ok=True)
    problems = []
    try:
        from workloads import iter_ops

        # Warm-up: the first op, untimed. Finishes lazy set-up and gives the
        # reference bytes for the determinism check.
        first = run_op(next(iter_ops(args.workload, args.seed)), cli, caches, quad_limit)
        records = run_window(args.workload, args.seed, args.seconds, cli, caches, quad_limit)
        if records[0].digest != first.digest:
            problems.append("rerun of the first op produced different bytes")

        traced = tr = None
        if args.trace:
            before = snapshot()
            traced_caches = Caches(modules)
            with Tracer() as tr:
                traced = run_window(args.workload, args.seed, args.seconds, cli, traced_caches, quad_limit)
            if snapshot() != before:
                problems.append("tracer did not restore every wrapped attribute")
        accuracy, untruthful = probe_accuracy(quad_limit)
    finally:
        for path in WORK.glob("op*.cfg"):
            path.unlink()
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if untruthful:
        problems.append(f"true error above the budget but not flagged: {untruthful}")
    for r in [first, *records, *(traced or [])]:
        for c in r.checks:
            problems.extend(f"op {r.index}: {p}" for p in c.malformed)

    summary = summarize(records)
    tail = tail_percentile([r.seconds for r in records])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(src_sha),
        "figure_sha256": figures,
        "identity_seed": IDENTITY_SEED,
        **summary,
        # Mean throughput; not a gated metric: on mc_detect the op cost is
        # bimodal (scipy's exact KS p-value is slow for some statistics), so a
        # run's mean follows its seeded mix of slow ops.
        "points_per_s": sum(r.rows for r in records) / sum(r.seconds for r in records),
        "op_s_tail": tail,
        "op_s": [r.seconds for r in records],
        "op_s_p50": statistics.median(r.seconds for r in records),
        "accuracy": accuracy,
        "problems": problems[:20],
    }
    if args.trace:
        metrics = per_layer(tr, traced_caches, traced, records)
        report["roadmap_table"] = roadmap_table(tr)
        print("per-call time, traced (ms)   ROADMAP   measured   calls", file=sys.stderr)
        for row in report["roadmap_table"]:
            measured = "-" if row["measured_ms"] is None else f"{row['measured_ms']:.4g}"
            print(f"  {row['what']:26s} {row['roadmap_ms']:8.4g}   {measured:>8s}   {row['calls']}", file=sys.stderr)
    else:
        metrics = end_to_end(records, setup_s, accuracy)
    print(json.dumps({"report": report}))
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
