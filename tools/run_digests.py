"""Print the sha256 digest of every file of S1/S3 runs, so that two checkouts
can be compared file by file.

    python3 tools/run_digests.py --out DIR [--seeds 101 102 103]
        [--policies vae zero] [--micro]

Each (seed, fill policy, scenario) runs the staged CLI of this checkout's
``src/`` in ``DIR/<seed>-<policy>-<scenario>``: S1 as partition ->
train-edges -> train-vaes -> train-ensemble, S3 as partition -> train-edges
-> simulate. Under ``zero``, ``mean`` or ``max`` fill train-vaes trains
nothing, so those S1 runs hold no ``vaes/``. The setting is the benchmark's
weak one (``PIPELINE_CONFIG`` of ``perfbench/workloads.py``, batch 128), or
the tests' ``micro_config`` with ``--micro``. Per run it prints one
``<run> <file> <sha256>`` line per file (edge and VAE artifacts,
``ensemble.npz``, ``metrics.json``, ``ledger.*``, ``partition.json``,
``config.json``, ...), with the run directory's path masked in every file,
and one ``<run> accuracy <value>`` line. A gate is one run per checkout and a
``diff`` of the two outputs.
"""

import os
import sys

# single-threaded BLAS, as the benchmark runs; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from edgefuse import cli  # noqa: E402
from edgefuse.config import ExperimentConfig  # noqa: E402

STAGES = {"S1": ("partition", "train_edges", "train_vaes", "train_ensemble"),
          "S3": ("partition", "train_edges", "simulate")}


def run_config(run: Path, seed: int, policy: str, scenario: str, micro: bool) -> dict:
    if micro:
        from test_cli import micro_config
        doc = micro_config(run.parent, seed=seed, scenario=scenario, subdir=run.name)
    else:
        from workloads import BATCH, PIPELINE_CONFIG
        doc = dict(PIPELINE_CONFIG, seed=seed, output_dir=str(run),
                   scenario={"name": scenario, "batch_size": BATCH})
    return dict(doc, fill_policy=policy)


def digests(run: Path) -> list:
    """(relative path, sha256) of every file under ``run``, its path masked."""
    mask = str(run).encode()
    return [(str(p.relative_to(run)), hashlib.sha256(p.read_bytes().replace(mask, b"<run>"))
             .hexdigest()) for p in sorted(run.rglob("*")) if p.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the run directories")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--policies", nargs="+", default=["vae", "zero"])
    parser.add_argument("--micro", action="store_true", help="the tests' micro_config setting")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    for seed in args.seeds:
        for policy in args.policies:
            for scenario in STAGES:
                name = f"{seed}-{policy}-{scenario}"
                run = out / name
                shutil.rmtree(run, ignore_errors=True)
                cfg = ExperimentConfig.from_dict(run_config(run, seed, policy, scenario,
                                                            args.micro))
                for stage in STAGES[scenario]:
                    getattr(cli, f"stage_{stage}")(cfg)
                for rel, digest in digests(run):
                    print(f"{name} {rel} {digest}")
                report = json.loads((run / "metrics.json").read_text())["report"]
                print(f"{name} accuracy {report['accuracy']!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
