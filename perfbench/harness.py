"""Runs one workload: set-up, measured passes, checks, metrics.

Load comes from one caller on one thread in a closed loop: each op starts
when the previous one has returned.  End-to-end figures come from passes
with tracing off.  A traced run instead makes untraced passes for half
its time, then one traced pass, and reports per-layer figures from the
spans of one traced set-up and that pass.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

import spans as tracing
from refs import AXIOM_TAGS
from workloads import WORKLOADS

# Set-up is repeated (untraced) and its median reported: at least 5 times
# and for at least 1 s, but at most 25 times.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25


def import_library(src: Path) -> SimpleNamespace:
    """A fresh import of the library under ``src``, so set-up pays for it."""
    for name in [m for m in sys.modules if m == "homgroups" or m.startswith("homgroups.")]:
        del sys.modules[name]
    package = importlib.import_module("homgroups")
    if Path(package.__file__).resolve().parent != (src / "homgroups").resolve():
        raise ImportError(f"homgroups imported from {package.__file__}, not from {src}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"homgroups.{m}") for m in tracing.MODULES}
    )


class Tally:
    """Attempted and failed ops, keeping the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(str(error))


def run_pass(ops, tally: Tally, latencies: list, tracer=None) -> float:
    """Run every op once; return the summed op latency.  Checks run untimed."""
    total = 0.0
    for idx, op in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.op = idx
            span = tracer.begin(op.span)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a failing op is counted, never fatal
            out = None
            error = traceback.format_exc(limit=3)
        else:
            error = None
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.end(span)
        total += dt
        latencies.append(dt)
        if error is None:
            try:
                error = op.check(out)
            except Exception:
                error = traceback.format_exc(limit=3)
        tally.record(error)
    return total


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_done(times, trace: bool) -> bool:
    if trace:
        return len(times) >= 1
    return len(times) >= SETUP_MAX_REPEATS or (
        len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS
    )


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    setup = WORKLOADS[workload]
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    try:
        setup_times = []
        while not setup_done(setup_times, trace):
            for f in workdir.iterdir():
                f.unlink()
            t0 = time.perf_counter()
            lib = import_library(root / "src")
            if tracer is not None:
                tracer.install(lib)
                tracer.op = "setup"
                setup_span = tracer.begin("setup")
            inputs = setup(lib, seed, workdir)
            if tracer is not None:
                tracer.end(setup_span)
                tracer.uninstall()
            setup_times.append(time.perf_counter() - t0)
        for error in inputs.setup_checks:
            tally.record(error)

        ops = inputs.ops
        latencies = array("d")  # compact, so peak RSS does not grow with ops run
        passes: list[float] = []
        gc.collect()
        start = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        # Whole passes only, and none that would end past the budget.
        while not passes or time.perf_counter() - start + passes[-1] <= budget:
            passes.append(run_pass(ops, tally, latencies))

        if not trace:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
                "pass_s": (statistics.mean(passes), "s"),
                "op_p95_ms": (nearest_rank(latencies, 0.95) * 1e3, "ms"),
                "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            }
        else:
            tracer.install(lib)
            tracer.op = "pass"
            pass_span = tracer.begin("pass")
            traced = run_pass(ops, tally, array("d"), tracer)
            tracer.end(pass_span)
            tracer.uninstall()
            metrics = layer_metrics(tracer.spans, traced / statistics.mean(passes), ops, latencies)
            write_trace(out_dir / f"trace-{workload}-{seed}.json", workload, seed, tracer.spans, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(spans, overhead_ratio, ops, latencies) -> dict:
    """Per-layer figures over one traced set-up and one traced pass.

    ``ops.p50_ms`` is the median op latency of the untraced passes.
    """
    rows = tracing.summarize(spans)

    def get(name, key="total"):
        return rows[name][key] if name in rows else 0

    def attr(name, key):
        return rows[name]["attrs"].get(key, 0) if name in rows else 0

    def ratio(a, b):
        return a / b if b else 0.0

    verify_calls = get("core.verify", "calls")
    rejects = sum(attr("core.verify", f"first_fail={tag}") for tag in AXIOM_TAGS)
    enumerate_total = get("classify.enumerate")
    tables = attr("classify.enumerate", "tables")
    candidates = attr("subgroups.enumerate", "candidates")
    found = attr("subgroups.enumerate", "found")
    hopf_sizes = [s[tracing.ATTRS]["n"] for s in spans if s[tracing.NAME] == "homhopf.verify"]
    hopf_checks = sum(n**3 + 2 * n**2 + 6 * n for n in hopf_sizes)
    cli_library = sum(
        s[tracing.END] - s[tracing.START]
        for s in spans
        if s[tracing.PARENT] >= 0 and spans[s[tracing.PARENT]][tracing.NAME] == "cli.main"
    )
    sizes = [op.props["n"] for op in ops if "n" in op.props]
    m = {
        "core.verify_s": (get("core.verify"), "s"),
        "core.verify_calls": (verify_calls, "count"),
        "core.verify_us_per_call": (ratio(get("core.verify") * 1e6, verify_calls), "us"),
        "core.verify_reject_ratio": (ratio(rejects, verify_calls), "ratio"),
    }
    for tag in AXIOM_TAGS:
        m[f"core.first_fail.{tag}"] = (ratio(attr("core.verify", f"first_fail={tag}"), rejects), "ratio")
    m.update(
        {
            "classify.enumerate_s": (get("classify.enumerate", "self"), "s"),
            "classify.tables": (tables, "count"),
            "classify.tables_per_s": (ratio(tables, enumerate_total), "1/s"),
            "classify.reduce_s": (get("classify.reduce"), "s"),
            "classify.canonical_form_calls": (get("classify.canonical_form", "calls"), "count"),
            "classify.classes": (attr("classify.reduce", "classes"), "count"),
            "subgroups.enumerate_s": (get("subgroups.enumerate"), "s"),
            "subgroups.enumerate_calls": (get("subgroups.enumerate", "calls"), "count"),
            "subgroups.candidates": (candidates, "count"),
            "subgroups.found": (found, "count"),
            "subgroups.hit_ratio": (ratio(found, candidates), "ratio"),
            "subgroups.coset_partition_s": (get("subgroups.coset_partition"), "s"),
            "subgroups.lagrange_self_s": (get("subgroups.lagrange_check", "self"), "s"),
            "subgroups.cauchy_self_s": (get("subgroups.cauchy_search", "self"), "s"),
            "constructions.automorphisms_s": (get("constructions.automorphisms_of"), "s"),
            "constructions.automorphisms_found": (attr("constructions.automorphisms_of", "found"), "count"),
            "constructions.twist_s": (get("constructions.twist"), "s"),
            "constructions.direct_product_s": (get("constructions.direct_product"), "s"),
            "constructions.group_s": (get("constructions.group"), "s"),
            "homhopf.verify_s": (get("homhopf.verify"), "s"),
            "homhopf.basis_checks": (hopf_checks, "count"),
            "homhopf.formal_s": (get("homhopf.formal"), "s"),
            "homhopf.formal_ops": (get("homhopf.formal", "calls"), "count"),
            "homhopf.sub_hopf_dims_s": (get("homhopf.sub_hopf_dims"), "s"),
            "cli.self_s": (get("cli.main", "self"), "s"),
            "cli.library_s": (cli_library, "s"),
            "cli.parse_s": (get("cli.parse_document"), "s"),
            "cli.commands": (get("cli.main", "calls"), "count"),
            "ops.count": (len(ops), "count"),
            "ops.p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "ops.n_max": (max(sizes, default=0), "count"),
            "ops.n_median": (statistics.median(sizes) if sizes else 0, "count"),
            "trace.spans": (len(spans), "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
    )
    return m


def write_trace(path: Path, workload, seed, spans, ops) -> None:
    """Spans with parents and op ids, plus one row per op with its input properties."""
    t0 = spans[0][tracing.START] if spans else 0.0
    props = {idx: {"kind": op.kind, **op.props} for idx, op in enumerate(ops)}
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start_s", "end_s", "parent", "op", "attrs"],
        "spans": [
            [s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in spans
        ],
        "ops": tracing.per_op_rows(spans, props),
    }
    path.write_text(json.dumps(doc))
