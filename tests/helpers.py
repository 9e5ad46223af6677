"""Shared test utilities: central-difference gradient checking and scalar
loop oracles that stay independent of the vectorized implementations they
verify."""

import math

import numpy as np


def numeric_grad(loss_fn, arr, h=1e-5):
    """Central finite differences of ``loss_fn()`` w.r.t. every entry of
    ``arr`` (perturbed in place)."""
    grad = np.zeros(arr.shape, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = arr[ix]
        arr[ix] = orig + h
        fp = loss_fn()
        arr[ix] = orig - h
        fm = loss_fn()
        arr[ix] = orig
        grad[ix] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric, atol=1e-7):
    """Worst-case |a - n| / max(|a|, |n|) with a small absolute floor so that
    near-zero gradients do not blow the ratio up."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), atol / 1e-4)
    return float((np.abs(a - n) / denom).max())


def assert_grads_match(analytic, numeric, rtol=1e-4, atol=1e-7, what=""):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(a - n)
    tol = atol + rtol * np.maximum(np.abs(a), np.abs(n))
    if not (diff <= tol).all():
        worst = float((diff - tol).max())
        raise AssertionError(f"gradient mismatch {what}: worst excess {worst:.3e}, "
                             f"max |diff| {diff.max():.3e}")


def model_gradcheck(model, loss_fn, rtol=1e-4, atol=1e-7, h=1e-5):
    """Check every parameter of a model against central differences.

    loss_fn: () -> float, recomputing the forward pass and loss from scratch.
    The model's analytic grads must already be populated via backward().
    """
    analytic = {(i, n): g.copy() for i, n, g in model.gradients()}
    for i, name, param in model.parameters():
        num = numeric_grad(loss_fn, param, h=h)
        assert_grads_match(analytic[(i, name)], num, rtol=rtol, atol=atol,
                           what=f"layer {i} {name}")


# ---------------------------------------------------------------------------
# Scalar loop oracles
# ---------------------------------------------------------------------------

def scalar_dense(x, w, b):
    n, d_in = x.shape
    d_out = w.shape[1]
    out = np.zeros((n, d_out), dtype=np.float64)
    for r in range(n):
        for j in range(d_out):
            acc = float(b[j])
            for k in range(d_in):
                acc += float(x[r, k]) * float(w[k, j])
            out[r, j] = acc
    return out


def scalar_relu(x):
    return np.where(np.asarray(x) > 0, x, 0.0)


def scalar_mlp(x, layers):
    """layers: list of (w, b); ReLU between hidden layers, linear head."""
    out = np.asarray(x, dtype=np.float64)
    for pos, (w, b) in enumerate(layers):
        out = scalar_dense(out, w, b)
        if pos < len(layers) - 1:
            out = scalar_relu(out)
    return out


def scalar_conv2d(x, w, b=None, stride=(1, 1)):
    bsz, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    sh, sw = stride
    oh = (h - kh) // sh + 1
    ow = (wid - kw) // sw + 1
    out = np.zeros((bsz, f, oh, ow), dtype=np.float64)
    for n in range(bsz):
        for fo in range(f):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0 if b is None else float(b[fo])
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += float(x[n, ci, i * sh + u, j * sw + v]) * float(w[fo, ci, u, v])
                    out[n, fo, i, j] = acc
    return out


def scalar_matmul(m1, m2):
    x_dim, y_dim = m1.shape
    z_dim = m2.shape[1]
    out = np.zeros((x_dim, z_dim), dtype=np.float64)
    for i in range(x_dim):
        for j in range(z_dim):
            acc = 0.0
            for k in range(y_dim):
                acc += float(m1[i, k]) * float(m2[k, j])
            out[i, j] = acc
    return out


def scalar_cross_entropy(probs, onehot, eps=1e-12):
    total = 0.0
    for r in range(probs.shape[0]):
        for j in range(probs.shape[1]):
            p = min(max(float(probs[r, j]), eps), 1.0)
            total -= float(onehot[r, j]) * math.log(p)
    return total / probs.shape[0]


def scalar_mse(pred, target):
    total = 0.0
    flat_p = np.asarray(pred).ravel()
    flat_t = np.asarray(target).ravel()
    for a, b in zip(flat_p, flat_t):
        total += (float(a) - float(b)) ** 2
    return total / flat_p.size


def scalar_maxpool2d(x, size):
    """Loop max pooling: (out, argmax) with argmax the row-major position in
    the window. The first maximum wins a tie and the first NaN wins outright;
    trailing rows and columns that do not fill a window are dropped."""
    ph, pw = size
    bsz, c, h, w = x.shape
    oh, ow = h // ph, w // pw
    out = np.zeros((bsz, c, oh, ow), dtype=x.dtype)
    argmax = np.zeros((bsz, c, oh, ow), dtype=np.int64)
    for n in range(bsz):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    best = 0
                    for k in range(1, ph * pw):
                        cur = float(x[n, ci, i * ph + best // pw, j * pw + best % pw])
                        val = float(x[n, ci, i * ph + k // pw, j * pw + k % pw])
                        if not math.isnan(cur) and (math.isnan(val) or val > cur):
                            best = k
                    argmax[n, ci, i, j] = best
                    out[n, ci, i, j] = x[n, ci, i * ph + best // pw, j * pw + best % pw]
    return out, argmax


def scalar_maxpool2d_backward(dout, argmax, x_shape, size):
    ph, pw = size
    dx = np.zeros(x_shape, dtype=dout.dtype)
    bsz, c, oh, ow = dout.shape
    for n in range(bsz):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    k = int(argmax[n, ci, i, j])
                    dx[n, ci, i * ph + k // pw, j * pw + k % pw] = dout[n, ci, i, j]
    return dx


def average_ranks(x):
    """1-based average ranks by pairwise counting: 1 + the values below, plus
    half the other values equal. NaN equals nothing and ranks after every
    number, NaNs in input order."""
    ranks = []
    for k, a in enumerate(x):
        if math.isnan(a):
            below = sum(not math.isnan(b) for b in x) + sum(math.isnan(b) for b in x[:k])
            ranks.append(below + 1.0)
        else:
            below = sum(b < a for b in x)
            equal = sum(b == a for b in x)
            ranks.append(below + 0.5 * (equal - 1) + 1.0)
    return ranks
