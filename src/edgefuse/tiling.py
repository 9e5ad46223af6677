"""Tiling planner and tiled executor.

``plan_tiling`` propagates manual tiling factors through a layer chain and
emits, per layer, the factored dimensions of weights and outputs for the
forward pass and of the incoming loss and weight gradients for the backward
pass. The first layer consumes the input-channel factor ``c_f``; every later
layer consumes the factor produced by the previous tileable layer, and the
mini-batch dimension is split as BS = BS_f * BS_p throughout.

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

TILEABLE = ("conv", "fcl")


class FactorError(ValueError):
    """A manual factor does not divide its target dimension."""


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


@dataclass(frozen=True)
class ConvLayer:
    filters: int
    channels: int
    kh: int
    kw: int
    out_h: int
    out_w: int
    factor: int = 1
    stride: tuple = (1, 1)
    kind: str = "conv"


@dataclass(frozen=True)
class FclLayer:
    l1: int
    l2: int
    factor: int = 1
    kind: str = "fcl"


@dataclass(frozen=True)
class PassLayer:
    """Pooling / flatten / activation: no weights, carries the factor through."""

    kind: str = "pass"


@dataclass
class TilingRequest:
    layers: list
    bs: int
    bs_f: int
    bs_p: int
    c_f: int

    def __post_init__(self):
        if self.bs_f * self.bs_p != self.bs:
            raise FactorError(f"BS must factor exactly: {self.bs_f} * {self.bs_p} != {self.bs}")
        for v in (self.bs, self.bs_f, self.bs_p, self.c_f):
            if v < 1:
                raise FactorError("factors must be >= 1")


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
    bs_p: int
    c_f: int
    factors_by_index: dict      # request layer index -> (consumed, produced)

    def to_dict(self) -> dict:
        return {"bs": self.bs, "bs_f": self.bs_f, "bs_p": self.bs_p, "c_f": self.c_f,
                "layers": [e.to_dict() for e in self.entries]}


def _check_divides(f: int, dim: int, index: int, kind: str, dim_name: str) -> None:
    if dim % f != 0:
        raise FactorError(f"layer {index} ({kind}): factor {f} does not divide {dim_name}={dim}")


def plan_tiling(request: TilingRequest) -> TilingPlan:
    """Propagate manual factors through the chain and emit factored shapes."""
    entries = []
    factors_by_index = {}
    carried = request.c_f
    for index, layer in enumerate(request.layers):
        if layer.kind not in TILEABLE:
            continue
        f, g = layer.factor, carried
        if layer.kind == "conv":
            _check_divides(f, layer.filters, index, "conv", "filters")
            _check_divides(g, layer.channels, index, "conv", "channels")
            w = FactoredShape(outer=(f, g),
                              inner=(layer.filters // f, layer.channels // g),
                              rest=(layer.kw, layer.kh))
            o_inner, o_rest = layer.filters // f, (layer.out_w, layer.out_h)
        else:
            _check_divides(f, layer.l2, index, "fcl", "l2")
            _check_divides(g, layer.l1, index, "fcl", "l1")
            w = FactoredShape(outer=(g, f), inner=(layer.l1 // g, layer.l2 // f))
            o_inner, o_rest = layer.l2 // f, ()
        o = FactoredShape(outer=(request.bs_f, f), inner=(request.bs_p, o_inner), rest=o_rest)
        entries.append(LayerPlan(index=index, kind=layer.kind, consumed_factor=g,
                                 produced_factor=f, weight_fwd=w, output_fwd=o))
        factors_by_index[index] = (g, f)
        carried = f
    return TilingPlan(entries=entries, bs=request.bs, bs_f=request.bs_f,
                      bs_p=request.bs_p, c_f=request.c_f,
                      factors_by_index=factors_by_index)


def request_from_model(model: nn.Model, factors: Sequence[int], *, bs: int,
                       bs_f: int = 1, c_f: int = 1) -> TilingRequest:
    """Build a request from a materialized model; ``factors`` aligns with the
    model's conv/dense layers in order."""
    factors = list(factors)
    layers = []
    it = iter(factors)
    for spec, layer in zip(model.specs, model.layers):
        if spec.kind == "conv":
            c, _, _ = layer.in_shape
            f_out, oh, ow = layer.out_shape
            kh, kw = spec.kernel
            layers.append(ConvLayer(filters=f_out, channels=c, kh=kh, kw=kw,
                                    out_h=oh, out_w=ow, factor=next(it),
                                    stride=layer.stride))
        elif spec.kind == "dense":
            layers.append(FclLayer(l1=layer.in_dim, l2=layer.out_dim, factor=next(it)))
        else:
            layers.append(PassLayer(kind=spec.kind))
    leftover = list(it)
    if leftover:
        raise FactorError(f"{len(leftover)} extra factors for {len(layers)} layers")
    if bs % bs_f != 0:
        raise FactorError(f"bs_f {bs_f} does not divide batch {bs}")
    return TilingRequest(layers=layers, bs=bs, bs_f=bs_f, bs_p=bs // bs_f, c_f=c_f)


def request_from_config(cfg: dict) -> TilingRequest:
    """Build a request from a plain dict (the CLI's layer-spec file format).

    Convolution chains need an ``input`` block with channels/height/width so
    output spatial dims and flattened widths can be chained; dense-only
    chains just need ``input.features``.
    """
    inp = cfg.get("input", {})
    if "channels" in inp:
        cur = (int(inp["channels"]), int(inp["height"]), int(inp["width"]))
    elif "features" in inp:
        cur = (int(inp["features"]),)
    else:
        raise FactorError("spec needs input.channels/height/width or input.features")
    layers = []
    for pos, lay in enumerate(cfg.get("layers", [])):
        kind = lay.get("kind")
        if kind == "conv":
            if len(cur) != 3:
                raise FactorError(f"layer {pos}: conv needs a (C,H,W) input")
            kh, kw = lay["kernel"]
            sh, sw = lay.get("stride", (1, 1))
            c, h, w = cur
            oh, ow = nn.conv2d_out_hw(h, w, kh, kw, sh, sw)
            layers.append(ConvLayer(filters=int(lay["filters"]), channels=c, kh=kh, kw=kw,
                                    out_h=oh, out_w=ow, factor=int(lay.get("factor", 1)),
                                    stride=(sh, sw)))
            cur = (int(lay["filters"]), oh, ow)
        elif kind in ("fcl", "dense"):
            if len(cur) != 1:
                raise FactorError(f"layer {pos}: fcl needs a flat input (add flatten)")
            l2 = int(lay.get("l2", lay.get("units", 0)))
            layers.append(FclLayer(l1=cur[0], l2=l2, factor=int(lay.get("factor", 1))))
            cur = (l2,)
        elif kind == "maxpool":
            ph, pw = lay.get("size", (2, 2))
            c, h, w = cur
            cur = (c, h // ph, w // pw)
            layers.append(PassLayer(kind="maxpool"))
        elif kind == "flatten":
            layers.append(PassLayer(kind="flatten"))
            cur = (int(np.prod(cur)),)
        elif kind == "relu":
            layers.append(PassLayer(kind="relu"))
        else:
            raise FactorError(f"layer {pos}: unknown kind {kind!r}")
    bs = int(cfg["bs"])
    bs_f = int(cfg.get("bs_f", 1))
    bs_p = int(cfg.get("bs_p", bs // bs_f))
    return TilingRequest(layers=layers, bs=bs, bs_f=bs_f, bs_p=bs_p,
                         c_f=int(cfg.get("c_f", 1)))


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
    if bsz % plan.bs_f != 0:
        raise FactorError(f"bs_f {plan.bs_f} does not divide batch {bsz}")
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
                g, f = plan.factors_by_index[li]
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
    first = next((li for li, spec in enumerate(model.specs) if spec.kind in KERNELS),
                 len(model.layers))
    for li in reversed(range(first, len(model.layers))):
        spec, layer = model.specs[li], model.layers[li]
        if spec.kind in KERNELS:
            kernel = KERNELS[spec.kind]
            input_grad = li > first
            g, f = plan.factors_by_index[li]
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
            "bs_p": plan.bs_p, "c_f": plan.c_f, "layers": layers}


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
