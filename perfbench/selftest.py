"""Self-tests of the benchmark itself. They take a few minutes and are not
collected by the repository's test suite; run them explicitly:

    python3 -m pytest -q perfbench/selftest.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402  (puts src/ on sys.path)
from tracer import SPANS, Span, Tracer  # noqa: E402

import edgefuse  # noqa: E402
from edgefuse import nn, vae  # noqa: E402

SEED = 101
# counts that later count-based claims rest on; they must repeat exactly
EXACT = ("comms.comm_count", "comms.cumulative_bytes", "vae.Vae.train_step.calls",
         "vae.Vae.decode.calls", "nn.Adam.step.calls", "nn.SGD.step.calls")


@pytest.fixture(scope="module")
def traced_run():
    """One traced run (one untraced and one traced unit) per workload and
    attempt, shared by the tests of this module."""
    cache = {}

    def get(name: str, attempt: int = 0) -> dict:
        if (name, attempt) not in cache:
            cache[name, attempt] = bench.run(name, SEED, seconds=1.0, trace=True)
        return cache[name, attempt]

    return get


@pytest.mark.parametrize("name", ["s1_oneshot", "s3_stream"])
def test_accuracy_and_counts_repeat_exactly(traced_run, name):
    first, second = traced_run(name, 0), traced_run(name, 1)
    acc = [r["extras"]["summary"]["accuracy"][0] for r in (first, second)]
    assert acc[0] == acc[1]
    for key in EXACT:
        assert first["metrics"][key][0] == second["metrics"][key][0], key
        assert first["metrics"][key][0] > 0, key


@pytest.mark.parametrize("name", ["s1_oneshot", "s3_stream", "tiled_step"])
def test_every_declared_span_fires_where_meant(traced_run, name):
    result = traced_run(name)
    assert result["ops"].failed == 0, result["ops"].reasons
    layers = result["metrics"]
    for span in SPANS:
        for stat in span.stats:
            value = layers[f"{span.name}.{stat}"][0]
            assert (value > 0) == (name in span.on) or stat == "self_s", (span.name, stat)
    if name != "tiled_step":
        assert not any(v for k, (v, _) in layers.items() if k.startswith("tiling."))
    if name == "s1_oneshot":
        assert layers["vae.Vae.decode.calls"][0] == 20


def test_tiled_steps_match_the_engine(traced_run):
    result = traced_run("tiled_step")
    assert result["ops"].failed == 0, result["ops"].reasons
    summary = result["extras"]["summary"]
    assert summary["meta.tiled_steps"][0] > 0 and summary["image.tiled_steps"][0] > 0
    assert result["extras"]["end_to_end"]["accuracy"][0] == 1.0


def test_tracer_restores_every_entry_point():
    originals = (nn.conv2d_forward, nn.Adam.step, vae.fill, edgefuse.comms.fill,
                 edgefuse.cli.train_vae)
    tracer = Tracer()
    tracer.install()
    try:
        assert nn.conv2d_forward is not originals[0]
        assert edgefuse.comms.fill is edgefuse.ensemble.fill is vae.fill
    finally:
        tracer.uninstall()
    assert (nn.conv2d_forward, nn.Adam.step, vae.fill, edgefuse.comms.fill,
            edgefuse.cli.train_vae) == originals


def test_patching_a_name_in_the_wrong_module_is_refused():
    tracer = Tracer([Span("vae.fill", ("s",), (), also=("tiling",))])
    with pytest.raises(LookupError):
        tracer.install()
    assert not tracer._saved
