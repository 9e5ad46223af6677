"""Per-edge variational autoencoders for imputing missing embeddings, plus
the trivial filling baselines (zero / mean / max).

Architecture per edge: encoder dense(64) -> (mu: 32, log-var: 32), decoder
dense(64) -> dense(feature width). Trained with the reparameterization trick
(z = mu + sigma * eps) under squared reconstruction error plus the closed
form KL divergence to a standard normal, using Adam.

Every ``Vae`` is a stack along a leading member axis (weights (N, in, out) in
one (N, P) ``nn.Module`` buffer). One edge's VAE is a stack of one; a streaming
run's N VAEs are one stack, so a round is one ``train_step`` and one ``decode``.

Filling takes the server's stacked (n, N, width) float32 matrix and its (n, N)
mask of received slots, and writes missing slot (r, i) in place by one of four
policies: ``vae`` decodes the slot's own latent with edge i's VAE (a slot draws
one latent for the whole run, keyed by row; ``fill`` draws them one stack of
VAEs at a time); ``zero`` writes zeros; ``mean``/``max`` write the running
mean / coordinatewise max of every row the server has received from edge i in
training so far, a re-sent row counting again, and zeros before edge i's first
receipt. The test split is filled with the statistics after the last receipt.
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
    """Per-dimension closed-form KL( N(mu, diag sigma^2) || N(0, I) )."""
    return 0.5 * (mu * mu + np.exp(logvar) - 1.0 - logvar)


class Vae(nn.Module):
    """A stack of VAEs with persistent Adam state so it can train full-batch
    runs or incrementally, one received mini-batch at a time.

    ``seed`` is a sequence of N seeds, or one seed for a stack of one: member
    k starts as ``Vae(..., seed=seed[k])`` and ``steps_run`` is per member.
    """

    def __init__(self, feature_width: int, latent_dim: int = LATENT_DIM,
                 hidden: int = HIDDEN, seed=0, lr: float = 1e-4, dtype=np.float32):
        self.feature_width = feature_width
        self.latent_dim = latent_dim
        self.hidden = hidden
        self.dtype = np.dtype(dtype).type
        self.seed = tuple(seed) if np.ndim(seed) > 0 else (seed,)
        self.members = len(self.seed)
        rngs = [np.random.default_rng(derived_seed(s, "vae-weights")) for s in self.seed]
        self.layers = [nn.Dense(i, o, rngs, self.dtype) for i, o in (
            (feature_width, hidden), (hidden, latent_dim), (hidden, latent_dim),
            (latent_dim, hidden), (hidden, feature_width))]
        self.enc_hidden, self.enc_mu, self.enc_logvar, self.dec_hidden, self.dec_out = self.layers
        self._bind()
        self.optimizer = nn.Adam(lr)
        self.steps_run = np.zeros(self.members, dtype=np.int64)

    def member(self, k: int) -> "Vae":
        """Member ``k`` as a stack of one on views of its weights (its step
        count copied, its Adam state fresh)."""
        vae = Vae(self.feature_width, self.latent_dim, self.hidden, seed=self.seed[k],
                  lr=self.optimizer.lr, dtype=self.dtype)
        vae._bind(self.flat[k:k + 1])
        vae.steps_run = self.steps_run[k:k + 1].copy()
        return vae

    # -- pieces -------------------------------------------------------------

    def encode(self, x: np.ndarray):
        h = self.enc_hidden.forward(x)
        a = nn.relu_forward(h)
        mu = self.enc_mu.forward(a)
        logvar = self.enc_logvar.forward(a)
        return mu, logvar, (h, a)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Latents (N, B, latent) to embeddings (N, B, width). Inference only:
        no layer keeps its input for a backward pass."""
        hidden, out = self.dec_hidden.params, self.dec_out.params
        h = nn.dense_forward(np.asarray(z, dtype=self.dtype), hidden["w"], hidden["b"])
        return nn.dense_forward(nn.relu_forward(h), out["w"], out["b"])

    # -- training -----------------------------------------------------------

    def loss_and_grads(self, x: np.ndarray, eps: np.ndarray, counts):
        """Compute the per-member losses for a batch with the given (frozen)
        noise and fill every layer's grads. Returns (total, reconstruction, kl).

        x is (N, B, width) and eps (N, B, latent): member k's batch is its
        first ``counts[k]`` rows, the rest is ignored padding. Each loss is
        averaged over the member's own rows (0 if it has none).
        """
        x = np.asarray(x, dtype=self.dtype)
        n = np.maximum(counts, 1).astype(self.dtype)
        rows = n[:, None, None]
        keep = (np.arange(x.shape[1]) < np.asarray(counts)[:, None])[..., None]
        x = np.where(keep, x, 0)                # padding of any value stays finite
        mu, logvar, (h_enc, a_enc) = self.encode(x)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * eps.astype(self.dtype, copy=False)
        h_dec = self.dec_hidden.forward(z)
        a_dec = nn.relu_forward(h_dec)
        xhat = self.dec_out.forward(a_dec)

        diff = xhat - x
        kl_terms = _kl_terms(mu, logvar)
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
        dmu *= keep
        dlogvar *= keep
        da_mu = self.enc_mu.backward(dmu.astype(self.dtype, copy=False))
        da_lv = self.enc_logvar.backward(dlogvar.astype(self.dtype, copy=False))
        dh_enc = nn.relu_backward(h_enc, da_mu + da_lv)
        self.enc_hidden.backward(dh_enc, input_grad=False)
        return total, recon, kl

    def train_step(self, x: np.ndarray, rng, counts):
        """One Adam step; returns the per-member losses. Takes x and ``counts``
        as ``loss_and_grads`` does and draws member k's noise from ``rng[k]``;
        a member with no rows gets a NaN loss and keeps its weights, Adam state
        and step count."""
        eps = np.zeros(x.shape[:2] + (self.latent_dim,))
        for k in np.flatnonzero(counts):
            eps[k, :counts[k]] = rng[k].standard_normal((counts[k], self.latent_dim))
        active = np.asarray(counts) > 0
        total = self.loss_and_grads(x, eps, counts)[0]
        if np.any(active):
            self.optimizer.step(self, active)
        self.steps_run += active
        return np.where(active, total, np.nan)


def train_vae(embeddings: np.ndarray, epochs: int, seed, *, lr: float = 1e-4,
              batch_size: int = 128, latent_dim: int = LATENT_DIM):
    """Train a fresh VAE on one edge's embeddings; returns (vae, loss trace)."""
    emb = np.asarray(embeddings)
    if emb.ndim != 2 or emb.shape[0] == 0:
        raise ValueError(f"embeddings must be a nonempty (n, width) matrix, got {emb.shape}")
    vae = Vae(feature_width=emb.shape[1], latent_dim=latent_dim, seed=seed, lr=lr)
    rng = rng_from(seed, "vae-train")       # reshuffles and noise draws share it
    trace = nn.minibatch_epochs(len(emb), epochs, batch_size, rng, lambda idx, epoch: vae.train_step(
        emb[idx][None], [rng], [len(idx)])[0])
    return vae, trace


# ---------------------------------------------------------------------------
# Filling policies
# ---------------------------------------------------------------------------

def slot_latent(seed, edge_id: int, sample_index: int, latent_dim: int = LATENT_DIM) -> np.ndarray:
    """The latent draw for one missing (edge, sample) slot; a pure function of
    its arguments, so imputed datasets are reproducible slot by slot."""
    rng = np.random.default_rng(seed_sequence(seed, "fill-slot", edge_id, sample_index))
    return rng.standard_normal(latent_dim)


def missing_slot_latents(mask: np.ndarray, seed, first_edge: int = 0,
                         latent_dim: int = LATENT_DIM) -> np.ndarray:
    """The (N, n, latent_dim) float32 latents of an (n, N) mask whose column i
    is edge ``first_edge + i``: slot (r, i) holds ``slot_latent(seed,
    first_edge + i, r)`` where ``mask[r, i]`` is False, 0 where the slot was
    received."""
    z = np.zeros((mask.shape[1], mask.shape[0], latent_dim), dtype=np.float32)
    for r, i in zip(*np.nonzero(~mask)):
        z[i, r] = slot_latent(seed, first_edge + int(i), int(r), latent_dim)
    return z


class Received:
    """Running count, float64 sum and coordinatewise max of each edge's received rows."""

    def __init__(self, n_edges: int, width: int):
        self.count, self.total = np.zeros(n_edges, dtype=np.int64), np.zeros((n_edges, width))
        self.peak = np.full((n_edges, width), -np.inf)

    def add(self, values: np.ndarray, mask: np.ndarray) -> "Received":
        """Add the received slots (``mask`` True) of an (n, N, width) batch."""
        self.count += mask.sum(axis=0)
        self.total += np.where(mask[..., None], values, 0).sum(axis=0, dtype=np.float64)
        self.peak = np.maximum(self.peak, np.where(mask[..., None], values, -np.inf).max(
            axis=0, initial=-np.inf))
        return self

    def vectors(self, policy: str) -> np.ndarray:
        """The (N, width) ``mean`` or ``max`` vectors, zero before an edge's first receipt."""
        return (self.total / np.maximum(self.count, 1)[:, None] if policy == "mean"
                else np.where(self.count[:, None] > 0, self.peak, 0.0))


def fill(policy: str, values: np.ndarray, mask: np.ndarray, *,
         vaes: Optional[Sequence[Vae]] = None, seed=0, latents=None, rows=None,
         received: Optional[Received] = None) -> np.ndarray:
    """Fill the slots of ``values`` (n, N, width) where ``mask`` (n, N) is False
    by ``policy``, in place, and return ``values``; received slots are left
    untouched.

    ``vaes`` are stacks whose members, in order, are the N edges; each stack
    decodes its members' missing slots, padded to the largest gap, in one call.
    ``latents`` (N, m, latent) with ``rows``, the row of ``latents`` of each row
    of ``values``, default to ``missing_slot_latents`` of each stack's columns of
    ``mask``, drawn one stack at a time: the latents of the whole-mask draw.
    ``mean``/``max`` read ``received``, by default ``Received(N, width).add(values,
    mask)``: one receipt of the received rows of ``values``, as S1 adds its training split.
    """
    if policy not in FILL_POLICIES:
        raise ValueError(f"unknown fill policy {policy!r}")
    n, n_edges, width = values.shape
    if mask.shape != (n, n_edges):
        raise nn.ShapeMismatchError(f"mask {mask.shape} does not match values {values.shape}")
    if policy == "vae" and (vaes is None or sum(v.members for v in vaes) != n_edges):
        raise ValueError("vae policy needs one VAE per edge, as stacks in edge order")
    if policy != "vae":
        vectors = np.zeros((n_edges, width))
        if policy != "zero":
            vectors = (received or Received(n_edges, width).add(values, mask)).vectors(policy)
        np.copyto(values, vectors[None], where=~mask[..., None])
        return values
    if latents is None:
        rows = np.arange(n)
    gaps, first = n - mask.sum(axis=0), 0
    order = np.argsort(mask.T, axis=1, kind="stable")      # per edge: its missing rows first
    for stack in vaes:
        k, first = slice(first, first + stack.members), first + stack.members
        if gaps[k].any():
            o = order[k, :gaps[k].max()]
            z = missing_slot_latents(mask[:, k], seed, k.start) if latents is None else latents[k]
            decoded = stack.decode(z[np.arange(stack.members)[:, None], rows[o]])
            e, j = np.nonzero(np.arange(o.shape[1]) < gaps[k, None])
            values[o[e, j], k.start + e] = decoded[e, j]
    return values
