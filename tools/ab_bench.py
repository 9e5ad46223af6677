"""A/B benchmark of this checkout against a parent revision: alternating
``perfbench/run.py --trace 0`` runs, summarised per workload and metric.

    python3 tools/ab_bench.py --parent REV --out DIR [--workloads ...]
        [--seeds 101 102 ...] [--seconds 35] [--label NAME]

The parent is checked out with ``git worktree add`` in a temporary directory,
which is removed afterwards. Each seed is one pair per workload: both sides run
their own checkout's ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, the parent first in even pairs and the change first in odd ones.
Every run's stdout and stderr are kept in DIR. For each end-to-end metric of
``BENCHMARK.json`` the summary gives both sides' medians and quartiles, the
pairs the change won (ties count for neither) and a verdict; failed operations
are counted per side, and a run without a result line counts as one. The
summary and every run's metrics are written to ``DIR/BENCH_<label>.json``. The
exit status is 1 when any run failed an operation or printed no result line.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str):
    """The JSON result of a ``perfbench/run.py`` run: its last line, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _spread(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _verdict(parent: dict, change: dict, worse: float, won: int, pairs: int,
             all_better: bool, bound: float) -> str:
    """``gain``: over at least ten pairs, the change won 9/10 of them and its
    median is better by more than the parent's quartile distance; ``better``: every change run
    beats every parent run; ``regressed``: the median is worse by more than
    the bound; ``unresolved``: either side's quartile distance is wider than
    the bound; ``within bound`` otherwise. ``worse`` is the relative median
    change, positive when worse."""
    base = abs(parent["median"]) or 1.0
    margin = -worse * base - (parent["q3"] - parent["q1"])
    if worse < 0 and pairs >= 10 and won >= 0.9 * pairs and margin > 0:
        return "gain"
    if all_better:
        return "better"
    if worse > bound:
        return "regressed"
    if max(s["q3"] - s["q1"] for s in (parent, change)) / base > bound:
        return "unresolved"
    return "within bound"


def summarize(runs: list, specs: dict) -> dict:
    """Per workload: failed operations per side and, per metric of ``specs``
    (name -> (better, bound)), both sides' spread, pairs won and a verdict.
    ``runs`` are dicts of workload, seed, side and result (None: no result line)."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        failed = {side: sum(1 if r["result"] is None else r["result"]["failed"]
                            for r in mine if r["side"] == side) for side in SIDES}
        pairs = {}
        for r in mine:
            if r["result"] is not None:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        metrics = {}
        for name, (better, bound) in specs.items():
            sign = 1 if better == "lower" else -1
            got = [(p["parent"][name]["value"], p["change"][name]["value"]) for p in pairs.values()
                   if all(name in p.get(side, {}) for side in SIDES)]
            if not got:
                continue
            parent, change = (_spread([g[k] for g in got]) for k in (0, 1))
            won = sum(sign * (c - p) < 0 for p, c in got)
            all_better = max(sign * c for _, c in got) < min(sign * p for p, _ in got)
            worse = sign * (change["median"] - parent["median"]) / (abs(parent["median"]) or 1.0)
            metrics[name] = {"parent": parent, "change": change, "won": won, "pairs": len(got),
                             "verdict": _verdict(parent, change, worse, won, len(got),
                                                 all_better, bound)}
        out[workload] = {"failed": failed, "metrics": metrics}
    return out


def format_summary(summary: dict) -> str:
    rows = []
    for workload, s in summary.items():
        rows.append(f"{workload}: failed operations parent {s['failed']['parent']}, "
                    f"change {s['failed']['change']}")
        for name, m in s["metrics"].items():
            p, c = m["parent"], m["change"]
            rows.append(f"  {name:<12} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                        f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                        f"  won {m['won']}/{m['pairs']}  {m['verdict']}")
    return "\n".join(rows)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, log: Path):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    log.with_suffix(".stdout").write_text(proc.stdout)
    log.with_suffix(".stderr").write_text(proc.stderr)
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="directory for run logs and the summary")
    parser.add_argument("--workloads", nargs="+", default=["s1_oneshot", "s3_stream", "tiled_step"])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(101, 111)))
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--label", default="ab")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    git = ["git", "-C", str(ROOT)]
    parent_rev, head = (subprocess.run(git + ["rev-parse", rev], check=True, capture_output=True,
                                       text=True).stdout.strip() for rev in (args.parent, "HEAD"))
    dirty = bool(subprocess.run(git + ["status", "--porcelain"], check=True, capture_output=True,
                                text=True).stdout.strip())
    specs = {m["name"]: (m["better"], m["bound"])
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp) / "parent"
        subprocess.run(git + ["worktree", "add", "--detach", str(parent_dir), parent_rev],
                       check=True, capture_output=True)
        try:
            for i, seed in enumerate(args.seeds):
                for workload in args.workloads:
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    for side in order:
                        checkout = parent_dir if side == "parent" else ROOT
                        result = run_once(checkout, workload, seed, args.seconds,
                                          out / f"{workload}-{seed}-{side}")
                        runs.append({"workload": workload, "seed": seed, "side": side,
                                     "result": result})
                        print(f"# {workload} seed {seed} {side}: "
                              f"{'no result line' if result is None else result['metrics']}",
                              flush=True)
        finally:
            subprocess.run(git + ["worktree", "remove", "--force", str(parent_dir)], check=True)
    summary = summarize(runs, specs)
    print(format_summary(summary))
    doc = {"parent": parent_rev, "change": {"head": head, "dirty": dirty}, "seconds": args.seconds,
           "seeds": args.seeds, "summary": summary, "runs": runs}
    (out / f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return 1 if any(sum(s["failed"].values()) for s in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
