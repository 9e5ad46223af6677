"""Tiling planner and tiled executor.

``plan_tiling`` propagates manual tiling factors through the conv and dense
layers of an ``nn.Model``, reading every size from the model's weight and
output shapes, and emits, per layer, the factored dimensions of weights and
outputs for the forward pass and of the incoming loss and weight gradients
for the backward pass. The first such layer consumes the input-channel factor
``c_f``; every later one consumes the factor produced by the one before, and
the mini-batch dimension is split as BS = BS_f * BS_p throughout.

``tiled_matmul`` / ``tiled_conv2d`` compute a product in ``f`` independent
partial products over the shared dimension and then aggregate them in a
fixed ascending order. Floating partials are computed and added in float64
and rounded once to the result dtype, so a float32 product is the float64
sum rounded once, whatever the factor; integer inputs stay integer and exact.
``execute_plan`` runs a whole model forward+backward
in duplicate-operate-aggregate style over logical lanes, with a stream audit
verifying that each tile is produced once and consumed exactly as many times
as it was duplicated. Dense and conv layers run from one table, ``KERNELS``,
keyed by layer kind: it names the weight axes that carry the input and output
tiles and the bias-free partial forward and backward kernels of ``nn``, so one
forward and one backward lane/audit loop serve both kinds. The bias is added
per output tile, and ``db`` comes from the first input tile's partial.

Each pass lowers each input tile of a lane once per layer (a conv tile's
im2col matrix) and reuses it for the partials of every output tile, as an
accelerator keeps an input tile on chip while it visits the output tiles;
the lowered tiles are dropped when the layer is done. The backward pass
computes no input gradient for the first layer with parameters, since
nothing reads it, and stops there, as ``nn.Model.backward(input_grad=False)``
does in training.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import nn


class FactorError(ValueError):
    """A manual factor does not divide its target dimension, or a spec is malformed."""


@dataclass(frozen=True)
class FactoredShape:
    """A dimension list split into [outer...][inner...] plus untiled extents.

    Dimension j of the original array has extent outer[j] * inner[j]; the
    trailing ``rest`` extents (kernel or spatial dims) are not factored.
    """

    outer: tuple
    inner: tuple
    rest: tuple = ()

    def dims(self) -> tuple:
        return tuple(o * i for o, i in zip(self.outer, self.inner)) + self.rest

    def to_dict(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner), "rest": list(self.rest)}


@dataclass
class TilingRequest:
    """A model and one output factor per conv/dense layer of it, in order."""

    model: nn.Model
    factors: tuple
    bs: int
    bs_f: int
    c_f: int

    def __post_init__(self):
        if min(self.bs, self.bs_f, self.c_f) < 1:
            raise FactorError("bs, bs_f and c_f must be >= 1")
        if self.bs % self.bs_f != 0:
            raise FactorError(f"BS must factor exactly: bs_f {self.bs_f} does not divide {self.bs}")
        tileable = sum(spec.kind in KERNELS for spec in self.model.specs)
        if len(self.factors) != tileable:
            raise FactorError(f"{len(self.factors)} factors for {tileable} conv/dense layers")


@dataclass
class LayerPlan:
    index: int
    kind: str
    consumed_factor: int
    produced_factor: int
    weight_fwd: FactoredShape
    output_fwd: FactoredShape

    # backward: the incoming loss is tiled like the output, weight gradients like the weights
    @property
    def loss_bwd(self) -> FactoredShape:
        return self.output_fwd

    @property
    def grad_bwd(self) -> FactoredShape:
        return self.weight_fwd

    def to_dict(self) -> dict:
        return {
            "index": self.index, "kind": self.kind,
            "consumed_factor": self.consumed_factor, "produced_factor": self.produced_factor,
            "weight_fwd": self.weight_fwd.to_dict(), "output_fwd": self.output_fwd.to_dict(),
            "loss_bwd": self.loss_bwd.to_dict(), "grad_bwd": self.grad_bwd.to_dict(),
        }


@dataclass
class TilingPlan:
    entries: list
    bs: int
    bs_f: int
    c_f: int


def _check_divides(f: int, dim: int, index: int, kind: str, dim_name: str) -> None:
    if f < 1 or dim % f != 0:
        raise FactorError(f"layer {index} ({kind}): factor {f} does not divide {dim_name}={dim}")


def plan_tiling(request: TilingRequest) -> TilingPlan:
    """Propagate manual factors through the model's conv/dense layers and
    emit factored shapes; dense layers are reported as ``fcl``."""
    entries = []
    carried = request.c_f
    bs_p = request.bs // request.bs_f
    factors = iter(request.factors)
    for index, (spec, layer) in enumerate(zip(request.model.specs, request.model.layers)):
        if spec.kind not in KERNELS:
            continue
        f, g = next(factors), carried
        kind = "conv" if spec.kind == "conv" else "fcl"
        if kind == "conv":
            filters, channels, kh, kw = layer.params["w"].shape
            _check_divides(f, filters, index, kind, "filters")
            _check_divides(g, channels, index, kind, "channels")
            w = FactoredShape(outer=(f, g), inner=(filters // f, channels // g), rest=(kw, kh))
        else:
            _check_divides(f, layer.out_dim, index, kind, "l2")
            _check_divides(g, layer.in_dim, index, kind, "l1")
            w = FactoredShape(outer=(g, f), inner=(layer.in_dim // g, layer.out_dim // f))
        width, *spatial = layer.out_shape
        o = FactoredShape(outer=(request.bs_f, f), inner=(bs_p, width // f),
                          rest=tuple(reversed(spatial)))
        entries.append(LayerPlan(index=index, kind=kind, consumed_factor=g,
                                 produced_factor=f, weight_fwd=w, output_fwd=o))
        carried = f
    return TilingPlan(entries=entries, bs=request.bs, bs_f=request.bs_f, c_f=request.c_f)


def request_from_model(model: nn.Model, factors: Sequence[int], *, bs: int,
                       bs_f: int = 1, c_f: int = 1) -> TilingRequest:
    """A request for ``model``; ``factors`` aligns with its conv/dense layers in order."""
    return TilingRequest(model=model, factors=tuple(factors), bs=bs, bs_f=bs_f, c_f=c_f)


def _spec_json(value, where: str, kind=dict):
    if not isinstance(value, kind):
        raise FactorError(f"{where} must be a JSON {'object' if kind is dict else 'list'}, "
                          f"got {type(value).__name__}")
    return value


def _spec_int(d: dict, key: str, where: str, default=None, n=1):
    """``d[key]`` (``default`` if absent) as a positive int, or a tuple of
    ``n`` > 1 of them; a FactorError names ``where`` and the key otherwise."""
    value = d.get(key, default)
    try:
        ints = tuple(int(v) for v in (value if n > 1 else [value]))
    except (TypeError, ValueError):
        ints = ()
    if len(ints) != n or min(ints) < 1:
        raise FactorError(f"{where}: missing {key!r}" if value is None else
                          f"{where}: {key!r} must be {n} positive integer(s), got {value!r}")
    return ints if n > 1 else ints[0]


def request_from_config(cfg) -> TilingRequest:
    """Build a request from a layer-spec document (the CLI's ``--spec`` file):
    its layers become an ``nn.Model`` (seed 0), which works out every shape.

    Keys: ``bs``; optional ``bs_f`` (default 1), ``bs_p`` (must be bs / bs_f)
    and ``c_f`` (default 1); ``input``, with ``channels``, ``height`` and
    ``width``, or ``features``; ``layers``, a list of objects whose ``kind`` is
    ``conv`` (``filters``, ``kernel`` [h, w], optional ``stride`` [h, w]),
    ``fcl`` or ``dense`` (``l2`` or ``units``), ``maxpool`` (optional ``size``
    [h, w], default [2, 2]), ``flatten`` or ``relu``. Conv and fcl layers take
    an optional ``factor`` (default 1).
    """
    cfg = _spec_json(cfg, "spec")
    inp = _spec_json(cfg.get("input", {}), "input")
    keys = ("channels", "height", "width") if "channels" in inp else ("features",)
    shape = tuple(_spec_int(inp, k, "input") for k in keys)
    specs, factors = [], []
    for pos, lay in enumerate(_spec_json(cfg.get("layers", []), "layers", list)):
        kind = _spec_json(lay, f"layer {pos}").get("kind")
        where = f"layer {pos} ({kind})"
        if kind == "conv":
            specs.append(nn.conv(_spec_int(lay, "kernel", where, n=2),
                                 _spec_int(lay, "filters", where),
                                 _spec_int(lay, "stride", where, (1, 1), n=2)))
        elif kind in ("fcl", "dense"):
            specs.append(nn.dense(_spec_int(lay, "units" if "units" in lay else "l2", where)))
        elif kind == "maxpool":
            specs.append(nn.maxpool(_spec_int(lay, "size", where, (2, 2), n=2)))
        elif kind in ("flatten", "relu"):
            specs.append(nn.LayerSpec(kind))
        else:
            raise FactorError(f"layer {pos}: unknown kind {kind!r}")
        if kind in ("conv", "fcl", "dense"):
            factors.append(_spec_int(lay, "factor", where, 1))
    bs = _spec_int(cfg, "bs", "spec")
    bs_f = _spec_int(cfg, "bs_f", "spec", 1)
    if "bs_p" in cfg and _spec_int(cfg, "bs_p", "spec") * bs_f != bs:
        raise FactorError(f"BS must factor exactly: {bs_f} * {cfg['bs_p']} != {bs}")
    return request_from_model(nn.Model(specs, shape, seed=0), factors, bs=bs, bs_f=bs_f,
                              c_f=_spec_int(cfg, "c_f", "spec", 1))


# ---------------------------------------------------------------------------
# Tiled primitives
# ---------------------------------------------------------------------------

def _accumulation_dtypes(*arrays):
    """(result dtype, dtype the partials are added in) for the given inputs.

    Floating results accumulate in float64; integer results accumulate in
    their own dtype, which is exact.
    """
    out_dtype = np.result_type(*arrays)
    acc_dtype = np.float64 if out_dtype.kind == "f" else out_dtype
    return out_dtype, acc_dtype


def tiled_matmul(m1: np.ndarray, m2: np.ndarray, f: int) -> np.ndarray:
    """(X,Y) @ (Y,Z) as ``f`` partial products over Y, aggregated ascending.

    Floating partials are added in float64 and rounded once to
    ``np.result_type(m1, m2)``; integer inputs give an exact integer result.
    """
    x_dim, y_dim = m1.shape
    y2, z_dim = m2.shape
    if y_dim != y2:
        raise nn.ShapeMismatchError(f"matmul dims {m1.shape} @ {m2.shape}")
    if y_dim % f != 0:
        raise FactorError(f"factor {f} does not divide shared dim {y_dim}")
    out_dtype, acc_dtype = _accumulation_dtypes(m1, m2)
    m1 = m1.astype(acc_dtype, copy=False)
    m2 = m2.astype(acc_dtype, copy=False)
    step = y_dim // f
    out = m1[:, :step] @ m2[:step, :]
    for k in range(1, f):
        sl = slice(k * step, (k + 1) * step)
        out = out + m1[:, sl] @ m2[sl, :]
    return out.astype(out_dtype, copy=False)


def tiled_conv2d(x: np.ndarray, w: np.ndarray, b=None, stride=(1, 1), f: int = 1) -> np.ndarray:
    """Valid conv computed as ``f`` channel-group partials, aggregated ascending.

    Floating partials (and the bias) are added in float64 and rounded once to
    ``np.result_type`` of ``x``, ``w`` and ``b``; integer inputs give an exact
    integer result.
    """
    c = x.shape[1]
    if w.shape[1] != c:
        raise nn.ShapeMismatchError(f"conv channels {c} vs weight {w.shape[1]}")
    if c % f != 0:
        raise FactorError(f"factor {f} does not divide channels {c}")
    out_dtype, acc_dtype = _accumulation_dtypes(*((x, w) if b is None else (x, w, b)))
    x = x.astype(acc_dtype, copy=False)
    w = w.astype(acc_dtype, copy=False)
    step = c // f
    out = nn.conv2d_forward(x[:, :step], w[:, :step], None, stride)
    for k in range(1, f):
        sl = slice(k * step, (k + 1) * step)
        out = out + nn.conv2d_forward(x[:, sl], w[:, sl], None, stride)
    if b is not None:
        out = out + b.astype(acc_dtype, copy=False)[None, :, None, None]
    return out.astype(out_dtype, copy=False)


# ---------------------------------------------------------------------------
# Stream audit
# ---------------------------------------------------------------------------

class StreamAudit:
    """Counts tile production, duplication (enqueue), and consumption
    (dequeue) so the single-use stream discipline can be asserted."""

    def __init__(self):
        self.produced = Counter()
        self.enqueued = Counter()
        self.dequeued = Counter()

    def produce(self, key) -> None:
        self.produced[key] += 1

    def duplicate(self, key, copies: int) -> None:
        self.enqueued[key] += copies

    def consume(self, key) -> None:
        self.dequeued[key] += 1

    def verify(self) -> None:
        multi = [k for k, v in self.produced.items() if v != 1]
        if multi:
            raise AssertionError(f"tiles produced more than once: {multi[:5]}")
        unknown = set(self.enqueued) - set(self.produced)
        if unknown:
            raise AssertionError(f"tiles duplicated but never produced: {sorted(unknown)[:5]}")
        for key in set(self.enqueued) | set(self.dequeued):
            if self.enqueued[key] != self.dequeued[key]:
                raise AssertionError(
                    f"tile {key}: enqueued {self.enqueued[key]} != dequeued {self.dequeued[key]}")


# ---------------------------------------------------------------------------
# Tiled executor
# ---------------------------------------------------------------------------

@dataclass
class TiledRunResult:
    outputs: np.ndarray
    loss: Optional[float]
    grads: list                   # (layer_index, name, array) like Model.gradients()
    audit: StreamAudit
    lanes_by_layer: dict          # layer index -> distinct (batch, out) lanes used


@dataclass(frozen=True)
class _Kernel:
    """One tileable layer kind: the weight axes of its input and output tiles
    (activations carry both on axis 1), the lowering of an input tile that
    its partials share (``None`` if they share nothing), and its partials on
    one tile pair given that lowering."""

    in_axis: int
    out_axis: int
    lower: Callable
    forward: Callable
    backward: Callable

    def tile(self, isl: slice, osl: slice) -> tuple:
        """Index of the weight tile joining input tile ``isl`` to output tile ``osl``."""
        return (isl, osl) if self.in_axis == 0 else (osl, isl)


# the kernels are looked up in ``nn`` at call time, so a patched kernel is seen
KERNELS = {
    "dense": _Kernel(0, 1, lambda layer, x: None,
                     lambda layer, x, w, cols: nn.dense_forward(x, w),
                     lambda layer, x, w, dy, input_grad, cols:
                         nn.dense_backward(x, w, dy, input_grad)),
    "conv": _Kernel(1, 0,
                    lambda layer, x: nn._im2col(x, *layer.params["w"].shape[2:], *layer.stride),
                    lambda layer, x, w, cols: nn.conv2d_forward(x, w, None, layer.stride, cols),
                    lambda layer, x, w, dy, input_grad, cols:
                        nn.conv2d_backward(x, w, dy, layer.stride, input_grad, cols)),
}


def _splits(total: int, parts: int):
    step = total // parts
    return [slice(k * step, (k + 1) * step) for k in range(parts)]


def execute_plan(plan: TilingPlan, model: nn.Model, x: np.ndarray,
                 targets: Optional[np.ndarray] = None,
                 loss: Optional[str] = None,
                 n_classes: Optional[int] = None) -> TiledRunResult:
    """Run the model tiled per the plan; results match the untiled engine up
    to float aggregation order (bit-exact when all factors are 1).

    With ``targets``/``loss`` given, also backpropagates and returns weight
    gradients aggregated lane by lane in fixed ascending order.
    """
    x = np.asarray(x, dtype=model.dtype)
    bsz = len(x)
    if bsz != plan.bs:
        raise nn.ShapeMismatchError(f"plan expects batch {plan.bs}, got {bsz}")
    factors = {e.index: (e.consumed_factor, e.produced_factor) for e in plan.entries}
    audit = StreamAudit()
    lanes_by_layer: dict = {}
    batch_slices = _splits(bsz, plan.bs_f)

    # ---------------- forward ----------------
    lane_acts = []          # per batch lane: list of layer inputs (for backward)
    lane_pool = []          # per batch lane: {layer_index: argmax}
    lane_outs = []
    for bl, bsl in enumerate(batch_slices):
        act = x[bsl]
        acts = []
        pools = {}
        for li, (spec, layer) in enumerate(zip(model.specs, model.layers)):
            acts.append(act)
            if spec.kind in KERNELS:
                kernel = KERNELS[spec.kind]
                g, f = factors[li]
                w, b = layer.params["w"], layer.params["b"]
                in_slices = _splits(w.shape[kernel.in_axis], g)
                out_slices = _splits(w.shape[kernel.out_axis], f)
                cols = [kernel.lower(layer, act[:, isl]) for isl in in_slices]
                outs = []
                for ol, osl in enumerate(out_slices):
                    lanes_by_layer.setdefault(li, set()).add((bl, ol))
                    part = None
                    for it, isl in enumerate(in_slices):
                        if bl == 0:
                            audit.produce((li, "w", it, ol))
                            audit.duplicate((li, "w", it, ol), plan.bs_f)
                        if ol == 0:
                            audit.produce((li, "x", bl, it))
                            audit.duplicate((li, "x", bl, it), f)
                        audit.consume((li, "x", bl, it))
                        audit.consume((li, "w", it, ol))
                        p = kernel.forward(layer, act[:, isl], w[kernel.tile(isl, osl)], cols[it])
                        part = p if part is None else part + p
                    # the bias runs along the output axis 1 of the partial
                    outs.append(part + b[osl].reshape((-1,) + (1,) * (part.ndim - 2)))
                del cols   # lowered tiles live for their layer only
                act = np.concatenate(outs, axis=1)
            elif spec.kind == "relu":
                act = nn.relu_forward(act)
            elif spec.kind == "maxpool":
                act, argmax = nn.maxpool2d_forward(act, layer.size)
                pools[li] = argmax
            elif spec.kind == "flatten":
                act = act.reshape(act.shape[0], -1)
        lane_acts.append(acts)
        lane_pool.append(pools)
        lane_outs.append(act)
    outputs = np.concatenate(lane_outs, axis=0)
    lanes = {k: len(v) for k, v in lanes_by_layer.items()}

    if targets is None or loss is None:
        audit.verify()
        return TiledRunResult(outputs=outputs, loss=None, grads=[], audit=audit,
                              lanes_by_layer=lanes)

    loss_val, dout = nn.loss_grad(outputs, targets, loss, n_classes)

    # ---------------- backward ----------------
    grads: dict = {}
    lane_dout = [dout[bsl] for bsl in batch_slices]
    # nothing reads the input gradient of the first layer with parameters,
    # nor anything below it
    first = min(factors, default=len(model.layers))
    for li in reversed(range(first, len(model.layers))):
        spec, layer = model.specs[li], model.layers[li]
        if spec.kind in KERNELS:
            kernel = KERNELS[spec.kind]
            input_grad = li > first
            g, f = factors[li]
            w = layer.params["w"]
            in_slices = _splits(w.shape[kernel.in_axis], g)
            out_slices = _splits(w.shape[kernel.out_axis], f)
            dw = np.zeros_like(w)
            db = np.zeros_like(layer.params["b"])
            new_dout = []
            for bl in range(plan.bs_f):
                xin = lane_acts[bl][li]
                dy = lane_dout[bl]
                cols = [kernel.lower(layer, xin[:, isl]) for isl in in_slices]
                dx = np.zeros_like(xin) if input_grad else None
                for ol, osl in enumerate(out_slices):
                    for it, isl in enumerate(in_slices):
                        audit.produce((li, "dw-part", bl, it, ol))
                        audit.duplicate((li, "dw-part", bl, it, ol), 1)
                        audit.consume((li, "dw-part", bl, it, ol))
                        wt = kernel.tile(isl, osl)
                        dxp, dwp, dbp = kernel.backward(layer, xin[:, isl], w[wt], dy[:, osl],
                                                        input_grad, cols[it])
                        dw[wt] += dwp
                        if input_grad:
                            dx[:, isl] += dxp
                        if it == 0:
                            db[osl] += dbp
                del cols
                new_dout.append(dx)
            grads[li] = {"w": dw, "b": db}
            lane_dout = new_dout
        elif spec.kind == "relu":
            lane_dout = [nn.relu_backward(lane_acts[bl][li], lane_dout[bl])
                         for bl in range(plan.bs_f)]
        elif spec.kind == "maxpool":
            lane_dout = [nn.maxpool2d_backward(lane_dout[bl], lane_pool[bl][li],
                                               lane_acts[bl][li].shape, layer.size)
                         for bl in range(plan.bs_f)]
        elif spec.kind == "flatten":
            lane_dout = [lane_dout[bl].reshape(lane_acts[bl][li].shape)
                         for bl in range(plan.bs_f)]
    audit.verify()
    return TiledRunResult(outputs=outputs, loss=loss_val, audit=audit, lanes_by_layer=lanes,
                          grads=[(li, name, grads[li][name]) for li, name, _ in model.parameters()])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def plan_label(plan: TilingPlan) -> str:
    conv_f = [str(e.produced_factor) for e in plan.entries if e.kind == "conv"]
    fcl_f = [str(e.produced_factor) for e in plan.entries if e.kind == "fcl"]
    if conv_f:
        return f"BS_f={plan.bs_f}-F_f={','.join(conv_f)}"
    return f"BS_f={plan.bs_f}-L_f={','.join(fcl_f)}"


def plan_report(plan: TilingPlan) -> dict:
    """Per-layer factored shapes, tile counts, and logical parallel lanes."""
    layers = []
    for e in plan.entries:
        layers.append({
            **e.to_dict(),
            "weight_tiles": e.produced_factor * e.consumed_factor,
            "lanes": plan.bs_f * e.produced_factor,
        })
    return {"label": plan_label(plan), "bs": plan.bs, "bs_f": plan.bs_f,
            "bs_p": plan.bs // plan.bs_f, "c_f": plan.c_f, "layers": layers}


def plan_report_text(plan: TilingPlan) -> str:
    rep = plan_report(plan)
    lines = [f"tiling plan {rep['label']}  (BS={rep['bs']} = {rep['bs_f']} x {rep['bs_p']}, C_f={rep['c_f']})"]
    for lay in rep["layers"]:
        w = lay["weight_fwd"]
        o = lay["output_fwd"]
        lines.append(
            f"  layer {lay['index']:>2} {lay['kind']:<4} f={lay['produced_factor']} "
            f"(consumes {lay['consumed_factor']}): "
            f"w {w['outer']}{w['inner']}{w['rest']} o {o['outer']}{o['inner']}{o['rest']} "
            f"tiles={lay['weight_tiles']} lanes={lay['lanes']}"
        )
    return "\n".join(lines)
