"""Benchmark of edgefuse: one command, three workloads.

    python3 perfbench/run.py --workload s1_oneshot --seed 101 --seconds 35 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (untraced); with --trace 1 they are the
per-layer ones from a traced run. See perfbench/README.md.
"""

import os
import sys

# One process with single-threaded BLAS: no more threads than cores, and the
# figures do not depend on how a shared machine schedules BLAS workers.
# Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import glob
import json
import math
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import edgefuse
except ImportError as exc:
    print(f"error: cannot import edgefuse from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(edgefuse.__file__).resolve().parent != ROOT / "src" / "edgefuse":
    print(f"error: edgefuse was imported from {edgefuse.__file__}, not from {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)

from tracer import SPANS, STAT_UNITS, Tracer
from workloads import WORKLOADS, OpFailed, Ops

# Set-ups are interleaved with the units, taking this share of the previous
# unit's time (at least one set-up; FIRST_SETUPS before the first unit), so
# setup_s samples the whole run and never rests on one cold set-up.
SETUP_SHARE = 0.05
FIRST_SETUPS = 5
REPICK_SECONDS = 2.0
WORK_DIR = ROOT / ".perfbench"


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

_PROBE_DOC = [list(range(k, k + 100)) for k in range(0, 5000, 100)]
_PROBE_MATRIX = np.ones((64, 64), dtype=np.float32)


def _probe() -> None:
    """A fixed ~1 ms mix of interpreter work and small BLAS calls."""
    json.dumps(_PROBE_DOC)
    for _ in range(20):
        _PROBE_MATRIX @ _PROBE_MATRIX


class CpuPlacement:
    """Keeps the process on the allowed CPU where a short fixed probe runs
    fastest, checked again every REPICK_SECONDS between units. On a shared
    2-vCPU machine one vCPU at times ran 30-40% slower than the other for
    minutes, so a run that happened to land there read slow."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = None
        self.moves = 0
        self._last = -math.inf

    def update(self) -> None:
        if len(self.cpus) < 2 or perf_counter() - self._last < REPICK_SECONDS:
            return
        best = dict.fromkeys(self.cpus, math.inf)
        for _ in range(3):
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                t0 = perf_counter()
                _probe()
                best[cpu] = min(best[cpu], perf_counter() - t0)
        cpu = min(best, key=best.get)
        os.sched_setaffinity(0, {cpu})
        self.moves += self.cpu is not None and cpu != self.cpu
        self.cpu = cpu
        self._last = perf_counter()


def repeat_units(workload, ops: Ops, placement: CpuPlacement, seconds: float,
                 records: list, durations: list, setups=None) -> None:
    """Run units until the next one would overrun ``seconds``; at least one.
    With a ``setups`` list, set up before each unit and append the times."""
    start = perf_counter()
    while True:
        placement.update()
        if setups is not None:
            count, last = (1, durations[-1]) if durations else (FIRST_SETUPS, 0.0)
            setups += timed_setups(workload, ops, count, SETUP_SHARE * last)
        try:
            records.append(workload.unit(ops))
            durations.append(workload.work_seconds(records[-1]))
        except OpFailed:
            pass
        elapsed = perf_counter() - start
        per_unit = elapsed / max(1, len(records))
        if elapsed + per_unit > seconds:
            return


def timed_setups(workload, ops: Ops, count: int, seconds: float = 0.0) -> list:
    """Set up at least ``count`` times and for at least ``seconds``."""
    out = []
    start = perf_counter()
    attempts = 0
    while attempts < count or perf_counter() - start < seconds:
        attempts += 1
        t0 = perf_counter()
        try:
            workload.setup(ops)
        except OpFailed:
            continue
        out.append(perf_counter() - t0)
    return out


def per_layer(tracer: Tracer, setup_span: tuple, work_span: tuple, units: int):
    """Per-layer metrics, with setup-phase spans per set-up and work spans
    per unit, and each span's call count for the coverage check."""
    setup = tracer.aggregate(*setup_span)
    work = tracer.aggregate(*work_span)
    out, calls = {}, {}
    for span in tracer.spans:
        agg = setup[span.name] if span.phase == "setup" else work[span.name]
        scale = 1 if span.phase == "setup" else units
        calls[span.name] = agg["calls"]
        for stat in span.stats:
            if stat == "rows":
                value = agg["rows"] / agg["calls"] if agg["calls"] else 0.0
            else:
                value = agg[stat] / scale
            out[f"{span.name}.{stat}"] = (value, STAT_UNITS[stat])
    steps = calls["tiling.execute_plan"]
    out["tiling.audit_tiles.per_step"] = (
        calls["tiling.StreamAudit.produce"] / steps if steps else 0.0, "tiles/step")
    return out, calls


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result plus human-readable extras."""
    workdir = WORK_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    workload = WORKLOADS[name](seed, workdir)
    ops = Ops()
    placement = CpuPlacement()
    try:
        setups, records, durations = [], [], []
        extras = {"placement": placement}
        if not trace:
            repeat_units(workload, ops, placement, seconds, records, durations, setups)
        else:
            repeat_units(workload, ops, placement, seconds / 2, records, durations, setups)
            tracer = Tracer()
            tracer.install()
            try:
                timed_setups(workload, ops, 1)
                mark = len(tracer)
                traced_records, traced = [], []
                repeat_units(workload, ops, placement, seconds / 2, traced_records, traced)
            finally:
                tracer.uninstall()
            units = max(1, len(traced_records))
            layers, calls = per_layer(tracer, (0, mark), (mark, len(tracer)), units)
            layers.update(workload.counts(traced_records))
            base = statistics.median(durations) if durations else 0.0
            over = statistics.median(traced) - base if traced and base else 0.0
            layers["trace.overhead.s"] = (over, "s")
            layers["trace.overhead.share"] = (over / base if base else 0.0, "fraction")
            layers["trace.spans.calls"] = ((len(tracer) - mark) / units, "count")
            ops.run("span-coverage", check_coverage, name, calls)
            WORK_DIR.mkdir(exist_ok=True)
            tracer.write(WORK_DIR / f"trace-{name}-seed{seed}.npz")
            extras["traced_units"] = len(traced_records)
            extras["layers"] = layers
    finally:
        workload.close()
        os.sched_setaffinity(0, placement.cpus)
    extras["units"] = len(records)
    extras["setups"] = len(setups)
    metrics = {}
    if records and setups:
        extras["summary"] = workload.summary(records)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "work_s": (statistics.median(durations), "s"),
            "accuracy": (workload.accuracy(records), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    extras["end_to_end"] = metrics
    if trace:
        metrics = extras.get("layers", {})
    return {"ops": ops, "metrics": metrics, "extras": extras}


def check_coverage(name: str, calls: dict) -> None:
    """Every declared span fires on the workloads meant to exercise it and
    stays silent on the rest; S1 decodes once per edge per split."""
    problems = [f"{span.name} {'fired' if calls[span.name] else 'silent'}"
                for span in SPANS if bool(calls[span.name]) != (name in span.on)]
    if name == "s1_oneshot" and calls["vae.Vae.decode"] != 20:
        problems.append(f"vae.Vae.decode.calls {calls['vae.Vae.decode']} != 20")
    if problems:
        raise AssertionError("span coverage: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print("# environment " + json.dumps(environment(args.seed), sort_keys=True))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    ops, extras = out["ops"], out["extras"]
    placement = extras["placement"]
    print(f"# workload {args.workload}: {extras['units']} units, {extras['setups']} set-ups, "
          f"{ops.attempted} operations, {ops.failed} failed; ran on CPU {placement.cpu} "
          f"of {placement.cpus}, {placement.moves} moves")
    for key, (value, unit) in extras.get("summary", {}).items():
        print(f"#   {key:<22} {_fmt(value):>12} {unit}")
    if args.trace:
        print(f"#   traced units {extras.get('traced_units')} (the figures above are untraced)")
    for reason in ops.reasons:
        print(f"# FAILED {reason}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    for key, m in metrics.items():
        print(f"# {key:<44} {_fmt(m['value']):>14} {m['unit']}")
    result = {"correct": ops.failed == 0 and bool(metrics), "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
