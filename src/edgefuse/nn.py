"""Minimal neural-network engine: layers, losses, optimizers, exact backprop.

Everything is plain ``numpy.ndarray``. Models default to float32; a float64
mode exists for high-precision gradient oracles. Layers follow the usual
contract: ``forward`` caches whatever the matching ``backward`` needs,
``backward`` fills ``self.grads`` and returns the gradient with respect to
the layer input, and ``infer`` gives ``forward``'s output and keeps nothing.

The convolution / dense / pooling kernels are also exposed as standalone
functions (``conv2d_forward`` etc.) so that tiled executors can run them on
array slices and aggregate partial results.

A ``Module`` (``Model``, ``vae.Vae``) keeps its parameters as views into one
(members, P) buffer: one row, or N for a stack of N same-shaped members with
a leading member axis on every parameter. ``SGD`` and ``Adam`` update it in
one pass per step and can leave members out of a step.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

PROB_EPS = 1e-12  # clamp floor for log() in cross-entropy


class ShapeMismatchError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    """An array that must stay finite went NaN or Inf; ``epoch_scope`` adds the epoch."""

    epoch: Optional[int] = None


class DivergenceError(RuntimeError):
    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged (non-finite loss) at epoch {epoch}")


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")


@contextmanager
def epoch_scope(epoch: int):
    """Stamp ``epoch`` on a NonFiniteError raised inside the block."""
    try:
        yield
    except NonFiniteError as exc:
        if exc.epoch is None:
            exc.epoch = epoch
            exc.args = (f"{exc} at epoch {epoch}",)
        raise


# ---------------------------------------------------------------------------
# Layer specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer; materialized by ``Model``.

    kind: "conv" | "maxpool" | "dense" | "flatten" | "relu"
    """

    kind: str
    kernel: Optional[tuple[int, int]] = None   # conv / maxpool window (h, w)
    filters: Optional[int] = None              # conv output channels
    units: Optional[int] = None                # dense output width
    stride: Optional[tuple[int, int]] = None   # conv only; defaults to (1, 1)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kernel is not None:
            d["kernel"] = list(self.kernel)
        if self.filters is not None:
            d["filters"] = self.filters
        if self.units is not None:
            d["units"] = self.units
        if self.stride is not None:
            d["stride"] = list(self.stride)
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        if "kind" not in d:
            raise ValueError(f"specs entry {d!r} lacks key 'kind'")
        return LayerSpec(
            kind=d["kind"],
            kernel=tuple(d["kernel"]) if d.get("kernel") else None,
            filters=d.get("filters"),
            units=d.get("units"),
            stride=tuple(d["stride"]) if d.get("stride") else None,
        )


def conv(kernel, filters, stride=None) -> LayerSpec:
    k = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    s = None if stride is None else ((stride, stride) if isinstance(stride, int) else tuple(stride))
    return LayerSpec(kind="conv", kernel=k, filters=filters, stride=s)


def maxpool(size=2) -> LayerSpec:
    k = (size, size) if isinstance(size, int) else tuple(size)
    return LayerSpec(kind="maxpool", kernel=k)


def dense(units) -> LayerSpec:
    return LayerSpec(kind="dense", units=units)


def flatten() -> LayerSpec:
    return LayerSpec(kind="flatten")


def relu() -> LayerSpec:
    return LayerSpec(kind="relu")


# ---------------------------------------------------------------------------
# Functional kernels (shared with the tiled executor)
# ---------------------------------------------------------------------------

def dense_forward(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """x (B, in) @ w (in, out) + b (out,), or all with a leading member axis."""
    out = x @ w
    if b is not None:       # in place unless b widens the dtype: the same sums, no temporary
        out = np.add(out, b[..., None, :], out=out if out.dtype == np.result_type(out, b) else None)
    return out


def dense_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray, input_grad=True):
    dw = np.swapaxes(x, -1, -2) @ dout
    db = dout.sum(axis=-2)
    dx = dout @ np.swapaxes(w, -1, -2) if input_grad else None
    return dx, dw, db


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Return patches of shape (B*OH*OW, C*kh*kw) for a valid-padding conv."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw, :, :]            # (B, C, OH, OW, kh, kw)
    b, c, oh, ow = win.shape[:4]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols)


def conv2d_out_hw(h: int, w: int, kh: int, kw: int, sh: int, sw: int) -> tuple[int, int]:
    if kh > h or kw > w:
        raise ShapeMismatchError(f"window ({kh},{kw}) larger than input ({h},{w})")
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def conv2d_forward(x: np.ndarray, w: np.ndarray, b=None, stride=(1, 1),
                   cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Valid-padding 2-d convolution. x: (B,C,H,W), w: (F,C,kh,kw) -> (B,F,OH,OW).

    ``cols``, if given, is ``_im2col`` of ``x`` for this kernel and stride,
    built once by a caller that convolves the same input more than once.
    """
    bsz, c, h, wid = x.shape
    f, cw, kh, kw = w.shape
    if c != cw:
        raise ShapeMismatchError(f"conv channels: input {c} vs weight {cw}")
    sh, sw = stride
    oh, ow = conv2d_out_hw(h, wid, kh, kw, sh, sw)
    if cols is None:
        cols = _im2col(x, kh, kw, sh, sw)
    out = cols @ w.reshape(f, -1).T              # (B*OH*OW, F)
    out = out.reshape(bsz, oh, ow, f).transpose(0, 3, 1, 2)
    if b is not None:
        out = out + b[None, :, None, None]
    return np.ascontiguousarray(out)


def conv2d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray, stride=(1, 1),
                    input_grad=True, cols: Optional[np.ndarray] = None):
    """Gradients of a valid-padding conv; returns (dx, dw, db), dx None
    unless ``input_grad``. ``cols`` is as for ``conv2d_forward``.

    dx is scattered in one loop over kernel positions (i, j): each adds
    ``dout`` times that position's weights to the strided input window it
    touched.
    """
    bsz, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    sh, sw = stride
    oh, ow = dout.shape[2], dout.shape[3]
    if cols is None:
        cols = _im2col(x, kh, kw, sh, sw)                    # (B*OH*OW, C*kh*kw)
    dmat = dout.transpose(0, 2, 3, 1).reshape(-1, f)          # (B*OH*OW, F)
    dw = (dmat.T @ cols).reshape(f, c, kh, kw)
    db = dout.sum(axis=(0, 2, 3))
    if not input_grad:
        return None, dw, db
    dx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            # positions (p,q) of dout touch x[:, :, p*sh+i, q*sw+j]
            contrib = (dmat @ w[:, :, i, j]).reshape(bsz, oh, ow, c)
            dx[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += contrib.transpose(0, 3, 1, 2)
    return dx, dw, db


def _pool_cell(a: np.ndarray, size, k: int) -> np.ndarray:
    """View of window position ``k`` (row-major) of every full pooling window."""
    ph, pw = size
    i, j = divmod(k, pw)
    oh, ow = a.shape[2] // ph, a.shape[3] // pw
    return a[:, :, i:oh * ph:ph, j:ow * pw:pw]


def maxpool2d_forward(x: np.ndarray, size=(2, 2)):
    """Non-overlapping max pooling; trailing rows/cols that do not fill a
    window are dropped. Returns (out, argmax), argmax the row-major position
    of the max in its window, kept for backward.

    One strided pass per window position: the first maximum wins a tie, and
    a window holding a NaN gives its first NaN, as ``np.argmax`` would.
    """
    out = _pool_cell(x, size, 0).copy()
    argmax = np.zeros(out.shape, dtype=np.intp)
    has_nan = np.isnan(x).any()
    for k in range(1, size[0] * size[1]):
        cell = _pool_cell(x, size, k)
        take = cell > out
        if has_nan:
            take |= np.isnan(cell) & ~np.isnan(out)
        out = np.where(take, cell, out)
        argmax += take * (k - argmax)
    return out, argmax


def maxpool2d_backward(dout: np.ndarray, argmax: np.ndarray, x_shape, size=(2, 2)) -> np.ndarray:
    """Each output gradient goes to its window's argmax cell; every other
    cell, dropped trailing rows and columns included, gets zero."""
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for k in range(size[0] * size[1]):
        _pool_cell(dx, size, k)[...] = np.where(argmax == k, dout, 0)
    return dx


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int, dtype=np.float32) -> np.ndarray:
    return np.eye(n_classes, dtype=dtype)[np.asarray(labels, dtype=np.int64)]


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean negative log-likelihood of probability rows against one-hot rows.

    Probabilities are clamped to [PROB_EPS, 1] before the log.
    """
    if probs.shape != onehot.shape:
        raise ShapeMismatchError(f"cross_entropy shapes {probs.shape} vs {onehot.shape}")
    p = np.clip(probs, PROB_EPS, 1.0)
    return float(-(onehot * np.log(p)).sum(axis=-1).mean())


def softmax_cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """Fused softmax + cross-entropy; returns (loss, dlogits)."""
    if logits.shape != onehot.shape:
        raise ShapeMismatchError(f"softmax_cross_entropy shapes {logits.shape} vs {onehot.shape}")
    p = softmax(logits)
    loss = cross_entropy(p, onehot)
    dlogits = (p - onehot) / logits.shape[0]
    return loss, dlogits.astype(logits.dtype, copy=False)


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements; returns (loss, dpred)."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"mse shapes {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float((diff * diff).sum() / n)
    return loss, (2.0 / n) * diff


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Base class; parameter-free layers keep empty params/grads dicts."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.out_shape: tuple[int, ...] = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``infer(x)``, keeping ``x`` for ``backward``."""
        self._x = x
        return self.infer(x)

    def backward(self, dout: np.ndarray, input_grad=True) -> Optional[np.ndarray]:
        raise NotImplementedError

    def param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())


class Dense(Layer):
    """With a list of generators, a stack: w (N, in, out) with member k drawn
    from ``rng[k]``, b (N, out), inputs (N, B, in)."""

    def __init__(self, in_dim: int, out_dim: int, rng, dtype):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        if isinstance(rng, np.random.Generator):
            w = he_uniform(rng, (in_dim, out_dim), fan_in=in_dim, dtype=dtype)
        else:
            w = np.stack([he_uniform(r, (in_dim, out_dim), fan_in=in_dim, dtype=dtype) for r in rng])
        self.params["w"] = w
        self.params["b"] = np.zeros(w.shape[:-2] + (out_dim,), dtype=dtype)
        self.out_shape = (out_dim,)
        self._x = None

    def infer(self, x):
        if x.ndim != self.params["w"].ndim or x.shape[-1] != self.in_dim:
            raise ShapeMismatchError(f"dense of weight {self.params['w'].shape} got {x.shape}")
        return dense_forward(x, self.params["w"], self.params["b"])

    def backward(self, dout, input_grad=True):
        dx, dw, db = dense_backward(self._x, self.params["w"], dout, input_grad)
        self.grads = {"w": dw, "b": db}
        return dx


class Conv2D(Layer):
    def __init__(self, in_shape, filters: int, kernel, stride, rng: np.random.Generator, dtype):
        super().__init__()
        c, h, w = in_shape
        kh, kw = kernel
        self.stride = stride or (1, 1)
        oh, ow = conv2d_out_hw(h, w, kh, kw, *self.stride)
        fan_in = c * kh * kw
        self.params["w"] = he_uniform(rng, (filters, c, kh, kw), fan_in=fan_in, dtype=dtype)
        self.params["b"] = np.zeros(filters, dtype=dtype)
        self.in_shape = tuple(in_shape)
        self.out_shape = (filters, oh, ow)
        self._x = None

    def infer(self, x):
        if x.shape[1:] != self.in_shape:
            raise ShapeMismatchError(f"conv expects (B,{self.in_shape}), got {x.shape}")
        return conv2d_forward(x, self.params["w"], self.params["b"], self.stride)

    def backward(self, dout, input_grad=True):
        dx, dw, db = conv2d_backward(self._x, self.params["w"], dout, self.stride, input_grad)
        self.grads = {"w": dw, "b": db}
        return dx


class MaxPool2D(Layer):
    def __init__(self, in_shape, size):
        super().__init__()
        c, h, w = in_shape
        self.size = size
        self.in_shape = tuple(in_shape)
        self.out_shape = (c, *conv2d_out_hw(h, w, *size, *size))
        self._argmax = None
        self._x_shape = None

    def infer(self, x):
        return maxpool2d_forward(x, self.size)[0]

    def forward(self, x):
        out, self._argmax = maxpool2d_forward(x, self.size)
        self._x_shape = x.shape
        return out

    def backward(self, dout, input_grad=True):
        return maxpool2d_backward(dout, self._argmax, self._x_shape, self.size)


class Flatten(Layer):
    def __init__(self, in_shape):
        super().__init__()
        self.in_shape = tuple(in_shape)
        self.out_shape = (int(np.prod(in_shape)),)
        self._shape = None

    def infer(self, x):
        return x.reshape(x.shape[0], -1)

    def forward(self, x):
        self._shape = x.shape
        return self.infer(x)

    def backward(self, dout, input_grad=True):
        return dout.reshape(self._shape)


class ReLU(Layer):
    def __init__(self, in_shape):
        super().__init__()
        self.out_shape = tuple(in_shape)
        self._x = None

    def infer(self, x):
        return relu_forward(x)

    def backward(self, dout, input_grad=True):
        return relu_backward(self._x, dout)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class Module:
    """Layers whose parameters are views into ``flat``, a (members, P) buffer
    in ``parameters()`` order with a row per member of a stack (one for a plain
    module). Loading weights copies into the views, never replaces them."""

    members: Optional[int] = None

    def _bind(self, flat: Optional[np.ndarray] = None) -> None:
        """Point every parameter at its columns of ``flat`` (by default a new copy)."""
        rows = self.members or 1
        named = [(layer, name) for layer in self.layers for name in sorted(layer.params)]
        if flat is None:
            flat = np.concatenate([np.zeros((rows, 0), self.dtype)] + [
                layer.params[name].reshape(rows, -1) for layer, name in named], axis=1)
        self._columns, off = [], 0
        for layer, name in named:
            cols = slice(off, off + layer.params[name].size // rows)
            layer.params[name] = flat[:, cols].reshape(layer.params[name].shape)
            self._columns.append((layer, name, cols))
            off = cols.stop
        self.flat, self.flat_grad = flat, None

    def gather_grads(self) -> np.ndarray:
        """Every layer's gradient copied into one buffer shaped like ``flat``."""
        if self.flat_grad is None:
            self.flat_grad = np.empty_like(self.flat)
        for layer, name, cols in self._columns:
            self.flat_grad[:, cols] = layer.grads[name].reshape(len(self.flat), -1)
        return self.flat_grad

    def parameters(self):
        """Stable (layer_index, name, array) listing of all parameters."""
        return [(i, name, layer.params[name])
                for i, layer in enumerate(self.layers) for name in sorted(layer.params)]

    def gradients(self):
        return [(i, name, layer.grads[name])
                for i, layer in enumerate(self.layers) for name in sorted(layer.params)]

    def param_count(self) -> int:
        return int(self.flat.size)

    def get_parameters(self) -> dict[str, np.ndarray]:
        return {f"layer{i}.{n}": p for i, n, p in self.parameters()}

    def set_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy weights from a {"layer<i>.<name>": array} mapping into ``flat``."""
        for i, name, param in self.parameters():
            key = f"layer{i}.{name}"
            if key not in arrays:
                raise KeyError(f"missing weight array {key}")
            arr = np.asarray(arrays[key], dtype=self.dtype)
            if arr.shape != param.shape:
                raise ShapeMismatchError(f"{key}: {arr.shape} vs {param.shape}")
            param[...] = arr


class Model(Module):
    """An ordered stack of layers materialized from ``LayerSpec``s.

    Weight init is He-style uniform, driven by a generator derived from
    ``seed`` alone, so identical (specs, input_shape, seed, dtype) always
    yields bit-identical weights.
    """

    def __init__(self, specs: Sequence[LayerSpec], input_shape, seed, dtype=np.float32):
        self.specs = tuple(specs)
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self.dtype = np.dtype(dtype).type
        rng = np.random.default_rng(seed)
        self.layers: list[Layer] = []
        cur = self.input_shape
        for i, spec in enumerate(self.specs):
            if spec.kind in ("conv", "maxpool") and len(cur) != 3:
                raise ShapeMismatchError(f"layer {i}: {spec.kind} needs (C,H,W) input, has {cur}")
            if spec.kind == "dense" and len(cur) != 1:
                raise ShapeMismatchError(f"layer {i}: dense needs flat input (flatten?), has {cur}")
            if spec.kind == "conv":
                layer = Conv2D(cur, spec.filters, spec.kernel, spec.stride, rng, self.dtype)
            elif spec.kind == "maxpool":
                layer = MaxPool2D(cur, spec.kernel or (2, 2))
            elif spec.kind == "dense":
                layer = Dense(cur[0], spec.units, rng, self.dtype)
            elif spec.kind == "flatten":
                layer = Flatten(cur)
            elif spec.kind == "relu":
                layer = ReLU(cur)
            else:
                raise ValueError(f"layer {i}: unknown layer kind {spec.kind!r}")
            self.layers.append(layer)
            cur = layer.out_shape
        self.output_shape = cur
        self._bind()

    def _input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeMismatchError(f"model expects (B,)+{self.input_shape}, got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the stack for training: each layer keeps what its backward needs."""
        out = self._input(x)
        for layer in self.layers:
            out = layer.forward(out)
        check_finite(out, "model output")
        return out

    def infer(self, x: np.ndarray, upto: Optional[int] = None) -> np.ndarray:
        """Inference: ``forward``'s kernels on each layer's ``params``, keeping no
        layer input or pooling argmax; with ``upto``, stop after layer ``upto``
        and return its activation."""
        out = self._input(x)
        for layer in self.layers[:None if upto is None else upto + 1]:
            out = layer.infer(out)
        check_finite(out, "model output")
        return out

    def backward(self, dout: np.ndarray, input_grad=True) -> Optional[np.ndarray]:
        """Fill every layer's grads; return the input gradient unless ``input_grad`` is False."""
        d = dout
        for i in range(len(self.layers) - 1, -1, -1):
            d = self.layers[i].backward(d, input_grad or i > 0)
        return d


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class _FlatOptimizer:
    """One update of a module's ``flat`` buffer per step, only of the members in
    ``active`` if given. ``_update`` does the float operations of the textbook
    per-parameter loop in order (so results are bit-identical), in the spent
    gradient or a reused array: buffer-sized temporaries cost more than math."""

    n_state = 0

    def __init__(self, lr: float):
        self.lr = lr
        self.steps = None           # per-member step counts, from the first step on
        self.state: list[np.ndarray] = []

    def step(self, model: Module, active: Optional[np.ndarray] = None) -> None:
        if self.steps is None:
            self.steps = np.zeros(len(model.flat), dtype=np.int64)
            self.state = [np.zeros_like(model.flat) for _ in range(self.n_state)]
        rows = slice(None) if active is None or np.all(active) else np.flatnonzero(active)
        grad = model.gather_grads()[rows]
        check_finite(grad, "gradient")
        self.steps[rows] += 1
        arrays = [a[rows] for a in [model.flat] + self.state]
        self._update(grad, self.steps[rows], *arrays)
        if not isinstance(rows, slice):        # fancy indexing copied the rows
            for dst, src in zip([model.flat] + self.state, arrays):
                dst[rows] = src


class SGD(_FlatOptimizer):
    def _update(self, grad, steps, param) -> None:
        param -= np.multiply(grad, self.lr, out=grad)                 # p -= lr * g


class Adam(_FlatOptimizer):
    n_state = 2            # moments m, v
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        super().__init__(lr)
        self._scratch = np.empty(0)

    def _update(self, grad, steps, param, m, v) -> None:
        def correction(beta):   # Python floats per member, rounded like a scalar operand
            return np.array([1 - beta ** int(t) for t in steps], dtype=param.dtype)[:, None]

        if self._scratch.shape != grad.shape:
            self._scratch = np.empty_like(grad)
        a, b = self._scratch, grad          # grad is spent once v is updated
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(grad, grad, out=a), 1 - self.beta2, out=a)
        np.divide(m, correction(self.beta1), out=a)                   # mhat
        np.add(np.sqrt(np.divide(v, correction(self.beta2), out=b), out=b), self.eps, out=b)
        param -= np.divide(np.multiply(a, self.lr, out=a), b, out=a)  # lr mhat / (sqrt vhat + eps)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def loss_grad(out: np.ndarray, targets, loss: str, n_classes: Optional[int] = None):
    """(loss, d loss / d out): "cross_entropy" takes integer labels and ``n_classes``
    (fused softmax), "mse" takes targets of ``out``'s size."""
    if loss == "cross_entropy":
        if n_classes is None:
            raise ValueError("cross_entropy needs n_classes")
        return softmax_cross_entropy(out, one_hot(targets, n_classes, dtype=out.dtype))
    if loss == "mse":
        return mse_loss(out, np.asarray(targets, dtype=out.dtype).reshape(out.shape))
    raise ValueError(f"unknown loss: {loss!r}")


def train_step(model: Model, opt, x: np.ndarray, y, *, loss: str,
               n_classes: Optional[int], epoch: int) -> float:
    """One optimizer step on a batch; returns its loss. Raises DivergenceError
    naming ``epoch`` when the loss goes non-finite."""
    lval, dout = loss_grad(model.forward(x), y, loss, n_classes)
    if not np.isfinite(lval):
        raise DivergenceError(epoch)
    model.backward(dout, input_grad=False)
    opt.step(model)
    return lval


def minibatch_epochs(n: int, epochs: int, batch_size: int, rng: np.random.Generator,
                     step) -> list[float]:
    """Epochs over ``n`` samples, reshuffled by ``rng`` each epoch and cut into
    batches; ``step(idx, epoch)`` trains on one batch and returns its mean loss.
    Returns the per-epoch mean loss trace; a NonFiniteError names its epoch."""
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        with epoch_scope(epoch):
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                total += step(idx, epoch) * len(idx)
        trace.append(total / n)
    return trace


def fit(model: Model, inputs: np.ndarray, targets: np.ndarray, *, loss: str,
        optimizer, epochs: int, batch_size: int, rng: np.random.Generator,
        n_classes: Optional[int] = None) -> list[float]:
    """Minibatch training with a seeded reshuffle each epoch.

    loss: "cross_entropy" (integer labels, fused softmax) or "mse".
    Returns the per-epoch mean loss trace. Raises DivergenceError when the
    loss goes non-finite, and NonFiniteError when an output or gradient
    does; both report the epoch it happened in.
    """
    if len(inputs) == 0:
        raise ValueError("cannot train on an empty dataset")
    return minibatch_epochs(len(inputs), epochs, batch_size, rng, lambda idx, epoch: train_step(
        model, optimizer, inputs[idx], targets[idx], loss=loss, n_classes=n_classes, epoch=epoch))
