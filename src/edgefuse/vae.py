"""Per-edge variational autoencoders for imputing missing embeddings, plus
the trivial filling baselines (zero / mean / max).

Architecture per edge: encoder dense(64) -> (mu: 32, log-var: 32), decoder
dense(64) -> dense(feature width). Trained with the reparameterization trick
(z = mu + sigma * eps) under squared reconstruction error plus the closed
form KL divergence to a standard normal, using Adam.

A streaming run holds its N VAEs as one ``Vae`` stacked along a leading
member axis (weights (N, in, out) in one (N, P) ``nn.Module`` buffer), so a
round is one masked ``train_step`` and one ``decode`` for every edge.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import nn
from .seeding import derived_seed, rng_from, seed_sequence

LATENT_DIM = 32
HIDDEN = 64

FILL_POLICIES = ("vae", "zero", "mean", "max")


def _kl_terms(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    return 0.5 * (mu * mu + np.exp(logvar) - 1.0 - logvar)


def kl_standard_normal(mu: np.ndarray, logvar: np.ndarray) -> float:
    """Closed-form KL( N(mu, diag sigma^2) || N(0, I) ), summed over dims and
    averaged over rows."""
    return float(_kl_terms(mu, logvar).sum(axis=-1).mean())


class Vae(nn.Module):
    """One VAE with persistent Adam state so it can train full-batch runs or
    incrementally, one received mini-batch at a time.

    With ``seed`` a sequence of N seeds, a stack of N members: member k
    starts as ``Vae(..., seed=seed[k])`` and ``steps_run`` is per member.
    """

    def __init__(self, feature_width: int, latent_dim: int = LATENT_DIM,
                 hidden: int = HIDDEN, seed=0, lr: float = 1e-4, dtype=np.float32):
        self.feature_width = feature_width
        self.latent_dim = latent_dim
        self.hidden = hidden
        self.dtype = np.dtype(dtype).type
        stacked = np.ndim(seed) > 0
        self.seed = tuple(seed) if stacked else seed
        self.members = len(self.seed) if stacked else None
        rngs = [np.random.default_rng(derived_seed(s, "vae-weights")) for s in np.atleast_1d(seed)]
        self.layers = [nn.Dense(i, o, rngs if stacked else rngs[0], self.dtype) for i, o in (
            (feature_width, hidden), (hidden, latent_dim), (hidden, latent_dim),
            (latent_dim, hidden), (hidden, feature_width))]
        self.enc_hidden, self.enc_mu, self.enc_logvar, self.dec_hidden, self.dec_out = self.layers
        self._bind()
        self.optimizer = nn.Adam(lr)
        self.steps_run = np.zeros(len(rngs), dtype=np.int64) if stacked else 0

    def member(self, k: int) -> "Vae":
        """Member ``k`` as a plain VAE on views of its weights (its step count
        copied, its Adam state fresh)."""
        vae = Vae(self.feature_width, self.latent_dim, self.hidden, seed=self.seed[k],
                  lr=self.optimizer.lr, dtype=self.dtype)
        vae._bind(self.flat[k:k + 1])
        vae.steps_run = int(self.steps_run[k])
        return vae

    # -- pieces -------------------------------------------------------------

    def encode(self, x: np.ndarray):
        h = self.enc_hidden.forward(x)
        a = nn.relu_forward(h)
        mu = self.enc_mu.forward(a)
        logvar = self.enc_logvar.forward(a)
        return mu, logvar, (h, a)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Latents (B, latent) to embeddings; a stack maps (N, B, latent)."""
        h = self.dec_hidden.forward(np.asarray(z, dtype=self.dtype))
        a = nn.relu_forward(h)
        return self.dec_out.forward(a)

    # -- training -----------------------------------------------------------

    def loss_and_grads(self, x: np.ndarray, eps: np.ndarray, counts=None):
        """Compute the loss for a batch with the given (frozen) noise and fill
        every layer's grads. Returns (total, reconstruction, kl).

        A stack takes x (N, B, width) and eps (N, B, latent): member k's batch
        is its first ``counts[k]`` rows, the rest is ignored padding. Losses
        are then per member, averaged over its own rows (0 if it has none).
        """
        x = np.asarray(x, dtype=self.dtype)
        n = rows = x.shape[0]
        keep = None
        if counts is not None:
            n = np.maximum(counts, 1).astype(self.dtype)
            rows = n[:, None, None]
            keep = (np.arange(x.shape[1]) < np.asarray(counts)[:, None])[..., None]
            x = np.where(keep, x, 0)            # padding of any value stays finite
        mu, logvar, (h_enc, a_enc) = self.encode(x)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * eps.astype(self.dtype, copy=False)
        h_dec = self.dec_hidden.forward(z)
        a_dec = nn.relu_forward(h_dec)
        xhat = self.dec_out.forward(a_dec)

        diff = xhat - x
        kl_terms = _kl_terms(mu, logvar)
        if keep is not None:
            diff *= keep
            kl_terms *= keep
        recon = np.float64((diff * diff).sum(axis=-1).sum(axis=-1) / n)
        kl = np.float64(kl_terms.sum(axis=-1).sum(axis=-1) / n)
        total = recon + kl
        if not np.all(np.isfinite(total)):
            raise nn.NonFiniteError("non-finite VAE loss")

        # reconstruction path
        dxhat = (2.0 / rows) * diff
        da_dec = self.dec_out.backward(dxhat)
        dh_dec = nn.relu_backward(h_dec, da_dec)
        dz = self.dec_hidden.backward(dh_dec)
        # reparameterization + KL head gradients
        dmu = dz + mu / rows
        dlogvar = dz * eps * 0.5 * sigma + 0.5 * (np.exp(logvar) - 1.0) / rows
        if keep is not None:
            dmu *= keep
            dlogvar *= keep
        da_mu = self.enc_mu.backward(dmu.astype(self.dtype, copy=False))
        da_lv = self.enc_logvar.backward(dlogvar.astype(self.dtype, copy=False))
        dh_enc = nn.relu_backward(h_enc, da_mu + da_lv)
        self.enc_hidden.backward(dh_enc, input_grad=False)
        return total, recon, kl

    def train_step(self, x: np.ndarray, rng, counts=None):
        """One Adam step; returns the loss. A stack takes x and ``counts`` as
        ``loss_and_grads`` does and draws member k's noise from ``rng[k]`` as
        a plain VAE on its rows would; a member with no rows gets a NaN loss
        and keeps its weights, Adam state and step count."""
        if counts is None:
            eps = rng.standard_normal((len(x), self.latent_dim))
            active = True
        else:
            eps = np.zeros(x.shape[:2] + (self.latent_dim,))
            for k in np.flatnonzero(counts):
                eps[k, :counts[k]] = rng[k].standard_normal((counts[k], self.latent_dim))
            active = np.asarray(counts) > 0
        total = self.loss_and_grads(x, eps, counts)[0]
        if np.any(active):
            self.optimizer.step(self, None if counts is None else active)
        self.steps_run += active
        return total if counts is None else np.where(active, total, np.nan)

    def generate(self, count: int, seed) -> np.ndarray:
        """Decode ``count`` latents drawn from N(0, I); deterministic per seed."""
        if count == 0:
            return np.zeros((0, self.feature_width), dtype=self.dtype)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, self.latent_dim))
        return self.decode(z)


def train_vae(embeddings: np.ndarray, epochs: int, seed, *, lr: float = 1e-4,
              batch_size: int = 128, latent_dim: int = LATENT_DIM):
    """Train a fresh VAE on one edge's embeddings; returns (vae, loss trace)."""
    emb = np.asarray(embeddings)
    if emb.ndim != 2 or emb.shape[0] == 0:
        raise ValueError(f"embeddings must be a nonempty (n, width) matrix, got {emb.shape}")
    vae = Vae(feature_width=emb.shape[1], latent_dim=latent_dim, seed=seed, lr=lr)
    rng = rng_from(seed, "vae-train")
    n = emb.shape[0]
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        with nn.epoch_scope(epoch):
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                loss = vae.train_step(emb[idx], rng)
                total += loss * len(idx)
                seen += len(idx)
        trace.append(total / seen)
    return vae, trace


# ---------------------------------------------------------------------------
# Filling policies
# ---------------------------------------------------------------------------

def slot_latent(seed, edge_id: int, sample_index: int, latent_dim: int = LATENT_DIM) -> np.ndarray:
    """The latent draw for one missing (edge, sample) slot; a pure function of
    its arguments, so imputed datasets are reproducible slot by slot."""
    rng = np.random.default_rng(seed_sequence(seed, "fill-slot", edge_id, sample_index))
    return rng.standard_normal(latent_dim)


def missing_slot_latents(mask: np.ndarray, sample_indices: np.ndarray, seed,
                         latent_dim: int = LATENT_DIM) -> dict:
    """Per-edge latents for every missing slot: {edge: (row positions, Z)}."""
    out = {}
    n, n_edges = mask.shape
    for i in range(n_edges):
        rows = np.nonzero(~mask[:, i])[0]
        if rows.size == 0:
            out[i] = (rows, np.zeros((0, latent_dim)))
            continue
        z = np.stack([slot_latent(seed, i, int(sample_indices[r]), latent_dim) for r in rows])
        out[i] = (rows, z)
    return out


def fill(policy: str, values: np.ndarray, mask: np.ndarray, *,
         vaes: Optional[Sequence[Vae]] = None,
         sample_indices: Optional[np.ndarray] = None, seed=0) -> np.ndarray:
    """Fill missing (sample, edge) slots; received slots are returned untouched.

    values: (n, N, width); mask: (n, N) with True = received from the edge.
    The VAE policy decodes a per-slot latent with the matching edge's VAE;
    zero/mean/max use only that edge's successfully received vectors.
    """
    if policy not in FILL_POLICIES:
        raise ValueError(f"unknown fill policy {policy!r}")
    n, n_edges, width = values.shape
    if mask.shape != (n, n_edges):
        raise nn.ShapeMismatchError(f"mask {mask.shape} does not match values {values.shape}")
    out = values.copy()
    if mask.all():
        return out
    if policy == "vae":
        if vaes is None or len(vaes) != n_edges:
            raise ValueError("vae policy needs one VAE per edge")
        if sample_indices is None:
            sample_indices = np.arange(n)
        latents = missing_slot_latents(mask, sample_indices, seed)
        for i in range(n_edges):
            rows, z = latents[i]
            if rows.size:
                out[rows, i, :] = vaes[i].decode(z)
        return out
    for i in range(n_edges):
        rows = np.nonzero(~mask[:, i])[0]
        if rows.size == 0:
            continue
        received = values[mask[:, i], i, :]
        if policy == "zero":
            fill_vec = np.zeros(width, dtype=values.dtype)
        else:
            if received.shape[0] == 0:
                raise ValueError(f"edge {i}: no received vectors to take the {policy} of")
            fill_vec = received.mean(axis=0) if policy == "mean" else received.max(axis=0)
        out[rows, i, :] = fill_vec
    return out
