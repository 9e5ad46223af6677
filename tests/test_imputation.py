import tracemalloc

import numpy as np
import pytest

from edgefuse.vae import (FILL_POLICIES, Received, Vae, _kl_terms, fill,
                          missing_slot_latents, slot_latent, train_vae)

from helpers import max_rel_err, numeric_grad


# ---------------------------------------------------------------------------
# training / loss
# ---------------------------------------------------------------------------

def test_constant_rows_drive_reconstruction_to_zero():
    emb = np.full((32, 8), 0.7, dtype=np.float32)
    vae, trace = train_vae(emb, epochs=600, seed=0, lr=0.01)
    eps = np.random.default_rng(1).standard_normal((32, vae.latent_dim))
    _, (recon,), (kl,) = vae.loss_and_grads(emb[None], eps[None], [len(emb)])
    assert recon < 0.05
    assert np.isfinite(kl) and 0.0 <= kl < 10.0
    assert trace[-1] < trace[0] * 0.01


def test_kl_zero_iff_standard_normal():
    assert _kl_terms(np.zeros((3, 32)), np.zeros((3, 32))).sum(-1).mean() == 0.0
    assert _kl_terms(np.full((1, 4), 0.5), np.zeros((1, 4))).sum(-1).mean() > 0.0
    assert _kl_terms(np.zeros((1, 4)), np.full((1, 4), 0.3)).sum(-1).mean() > 0.0


def test_kl_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(1, 4))
    logvar = rng.normal(scale=0.5, size=(1, 4))
    closed = _kl_terms(mu, logvar).sum(-1).mean()
    sigma = np.exp(0.5 * logvar)
    x = rng.normal(size=(1_000_000, 4)) * sigma + mu
    logp = (-0.5 * ((x - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    logq = (-0.5 * x ** 2 - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    mc = float((logp - logq).mean())
    assert abs(closed - mc) / abs(closed) < 0.02


def test_reparameterized_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    vae = Vae(6, latent_dim=4, hidden=5, seed=1, dtype=np.float64)
    x = rng.normal(size=(3, 6))
    eps = rng.normal(size=(3, 4))       # frozen noise

    def loss_fn():
        return vae.loss_and_grads(x[None], eps[None], [len(x)])[0][0]

    loss_fn()
    analytic = {(i, n): g.copy() for i, n, g in vae.gradients()}
    worst = 0.0
    for i, name, p in vae.parameters():
        num = numeric_grad(loss_fn, p)
        worst = max(worst, max_rel_err(analytic[(i, name)], num))
    assert worst < 1e-4


def test_vae_architecture_and_param_count():
    vae = Vae(64)
    assert vae.latent_dim == 32 and vae.hidden == 64
    # dense(64->64) + two heads (64->32) + dense(32->64) + dense(64->64)
    expected = (64 * 64 + 64) + 2 * (64 * 32 + 32) + (32 * 64 + 64) + (64 * 64 + 64)
    assert vae.param_count() == expected


def test_train_vae_rejects_empty_or_misshapen():
    with pytest.raises(ValueError):
        train_vae(np.zeros((0, 8)), epochs=1, seed=0)
    with pytest.raises(ValueError):
        train_vae(np.zeros(8), epochs=1, seed=0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generated_mean_matches_training_statistics():
    # Gaussian toy corpus: decoded standard-normal latents (the draw ``fill``
    # decodes) should average within 3 sigma / sqrt(n) of the corpus mean
    # per coordinate
    rng = np.random.default_rng(100)
    corpus_mean = rng.normal(size=8)
    corpus = (corpus_mean + 0.05 * rng.normal(size=(256, 8))).astype(np.float32)
    vae, _ = train_vae(corpus, epochs=4000, seed=0, lr=3e-3, batch_size=256)
    gen = vae.decode(np.random.default_rng(50).standard_normal((1, 500, vae.latent_dim)))[0]
    diff = np.abs(gen.mean(axis=0) - corpus.mean(axis=0))
    bound = 3.0 * corpus.std(axis=0) / np.sqrt(len(gen))
    assert np.all(diff <= bound), f"worst excess {(diff - bound).max():.5f}"


# ---------------------------------------------------------------------------
# filling policies
# ---------------------------------------------------------------------------

def _matrix(n=6, n_edges=3, width=4, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, n_edges, width)).astype(np.float32)
    mask = np.ones((n, n_edges), dtype=bool)
    return values, mask


def test_fully_available_is_noop_for_every_policy():
    values, mask = _matrix()
    vaes = [Vae(4, seed=i) for i in range(3)]
    for policy in ("vae", "zero", "mean", "max"):
        out = fill(policy, values.copy(), mask, vaes=vaes, seed=1)
        assert np.array_equal(out, values)


def test_zero_policy_zeroes_missing_rows():
    values, mask = _matrix()
    mask[2, 1] = False
    out = fill("zero", values, mask)
    assert np.all(out[2, 1] == 0.0)
    assert np.array_equal(out[2, 0], values[2, 0])


def test_mean_policy_matches_scalar_oracle():
    values, mask = _matrix(n=5)
    mask[0, 1] = False
    mask[3, 1] = False
    out = fill("mean", values, mask)
    received = [values[k, 1] for k in range(5) if mask[k, 1]]
    expected = np.zeros(4)
    for vec in received:
        for j in range(4):
            expected[j] += float(vec[j])
    expected /= len(received)
    assert np.allclose(out[0, 1], expected, atol=1e-6)
    assert np.allclose(out[3, 1], expected, atol=1e-6)


def test_max_policy_coordinatewise():
    values, mask = _matrix(n=4)
    mask[1, 2] = False
    out = fill("max", values, mask)
    received = values[mask[:, 2], 2, :]
    assert np.array_equal(out[1, 2], received.max(axis=0))


def test_fill_never_mutates_available_slots():
    values, mask = _matrix(n=8)
    rng = np.random.default_rng(3)
    mask &= rng.random(mask.shape) > 0.4
    mask[0, :] = True                      # keep at least one received per edge
    values[~mask] = np.nan                 # a missing slot left unwritten stays NaN
    vaes = [Vae(4, seed=i) for i in range(3)]
    for policy in ("vae", "zero", "mean", "max"):
        target = values.copy()
        out = fill(policy, target, mask, vaes=vaes, seed=2)
        assert out is target                                    # filled in place
        assert out[mask].tobytes() == values[mask].tobytes()    # bit-identical
        assert np.all(np.isfinite(out[~mask])), policy


def test_fill_never_changes_a_received_slot():
    """Any shape, mask and policy: ``fill`` returns ``values`` itself, every
    received slot comes back bit for bit, and every missing slot is written."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(policy=st.sampled_from(FILL_POLICIES), n=st.integers(1, 7),
                      n_edges=st.integers(1, 4), width=st.integers(1, 5),
                      p_received=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def check(policy, n, n_edges, width, p_received, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, n_edges, width)).astype(np.float32)
        mask = rng.random((n, n_edges)) < p_received
        if policy in ("mean", "max"):
            mask[rng.integers(0, n, n_edges), np.arange(n_edges)] = True   # one per edge
        values[~mask] = np.nan
        before = values.copy()
        vaes = [Vae(width, seed=seed + i) for i in range(n_edges)] if policy == "vae" else None
        out = fill(policy, values, mask, vaes=vaes, seed=seed)
        assert out is values and out.shape == before.shape and out.dtype == before.dtype
        assert out[mask].tobytes() == before[mask].tobytes()
        assert np.all(np.isfinite(out[~mask]))

    check()


def test_vae_fill_allocates_a_fraction_of_its_matrix():
    """The server's matrix is held once: ``fill`` writes into ``values`` and
    draws latents one stack at a time, so the call's own peak stays well under
    the matrix it fills."""
    rng = np.random.default_rng(21)
    values = rng.normal(size=(2000, 16, 64)).astype(np.float32)
    mask = rng.random((2000, 16)) < 0.3
    vaes = [Vae(64, seed=i) for i in range(16)]
    tracemalloc.start()
    try:
        out = fill("vae", values, mask, vaes=vaes, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is values
    assert peak < 0.5 * values.nbytes, f"peak {peak} B for a {values.nbytes} B matrix"


def test_vae_policy_uses_matching_edge_model():
    values, mask = _matrix(n=4)
    mask[1, 0] = False
    mask[1, 2] = False
    vaes = [Vae(4, seed=i) for i in range(3)]
    out = fill("vae", values, mask, vaes=vaes, seed=9)
    z0 = slot_latent(9, 0, 1)
    z2 = slot_latent(9, 2, 1)
    assert np.allclose(out[1, 0], vaes[0].decode(z0[None, None])[0, 0])
    assert np.allclose(out[1, 2], vaes[2].decode(z2[None, None])[0, 0])


def test_an_edge_with_no_receipt_fills_with_zero():
    values, mask = _matrix(n=3)
    mask[:, 1] = False
    for policy in ("zero", "mean", "max"):
        out = fill(policy, values, mask)
        assert np.all(out[:, 1] == 0.0), policy
        assert np.array_equal(out[:, 0], values[:, 0])
    # the running statistics likewise, until the edge's first receipt
    received = Received(3, 4).add(values, mask)
    assert np.all(received.vectors("mean")[1] == 0.0) and np.all(received.vectors("max")[1] == 0.0)


def test_running_mean_and_max_cover_every_round_so_far():
    """Over a random sequence of batches and masks, a mean (max) slot filled in
    round k holds the mean (max) of every row its edge sent in rounds 1..k,
    and zero while the edge has sent none."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(rounds=st.integers(1, 5), b=st.integers(1, 4), n_edges=st.integers(1, 3),
                      width=st.integers(1, 4), p_received=st.floats(0.0, 1.0),
                      seed=st.integers(0, 2**16))
    def check(rounds, b, n_edges, width, p_received, seed):
        rng = np.random.default_rng(seed)
        received = Received(n_edges, width)
        sent = [np.zeros((0, width)) for _ in range(n_edges)]
        for _ in range(rounds):
            values = rng.normal(size=(b, n_edges, width)).astype(np.float32)
            mask = rng.random((b, n_edges)) < p_received
            received.add(values, mask)
            sent = [np.concatenate([s, values[mask[:, i], i]]) for i, s in enumerate(sent)]
            mean, peak = fill("mean", values.copy(), mask, received=received), fill(
                "max", values.copy(), mask, received=received)
            for i, rows in enumerate(sent):
                gaps = ~mask[:, i]
                if not len(rows):
                    assert np.all(mean[gaps, i] == 0) and np.all(peak[gaps, i] == 0)
                    continue
                assert np.allclose(mean[gaps, i], rows.mean(axis=0), rtol=1e-6, atol=1e-6)
                assert np.array_equal(peak[gaps, i], np.broadcast_to(
                    rows.max(axis=0).astype(np.float32), peak[gaps, i].shape))

    check()


def test_one_stack_fills_as_its_members_do():
    values, mask = _matrix(n=6)
    mask &= np.random.default_rng(4).random(mask.shape) > 0.5
    stack = Vae(4, seed=[3, 4, 5])
    together = fill("vae", values.copy(), mask, vaes=[stack], seed=8)
    apart = fill("vae", values.copy(), mask, vaes=[stack.member(i) for i in range(3)], seed=8)
    assert np.allclose(together, apart, rtol=1e-5, atol=1e-6)
    assert np.array_equal(together[mask], values[mask])


def test_a_batch_draws_the_latents_of_its_rows_in_the_run():
    values, mask = _matrix(n=8)
    mask &= np.random.default_rng(5).random(mask.shape) > 0.5
    vaes = [Vae(4, seed=i) for i in range(3)]
    whole = fill("vae", values, mask, vaes=vaes, seed=6)
    rows = np.array([6, 1, 3])
    edge, j = np.nonzero(~mask[rows].T)                  # the batch's missing slots, in order
    latents = np.array([slot_latent(6, i, r) for i, r in zip(edge, rows[j])], dtype=np.float32)
    batch = fill("vae", values[rows], mask[rows], vaes=vaes, latents=latents)
    assert np.allclose(batch, whole[rows], rtol=1e-5, atol=1e-6)    # decoded in other batches


def test_unknown_policy_rejected():
    values, mask = _matrix()
    with pytest.raises(ValueError, match="unknown fill policy"):
        fill("median", values, mask)


def test_slot_latents_independent_of_other_slots():
    mask_a = np.ones((5, 2), dtype=bool)
    mask_a[2, 1] = False
    mask_b = mask_a.copy()
    mask_b[4, 0] = False                  # extra missing slot elsewhere
    za = missing_slot_latents(mask_a, seed=7)
    zb = missing_slot_latents(mask_b, seed=7)
    assert za.shape == (1, 32) and zb.shape == (2, 32)
    assert np.array_equal(za[0], zb[1])     # slot (2, 1): edge 0's slot (4, 0) comes first


def test_slot_latents_are_keyed_by_row():
    """Any mask: the k-th missing slot (r, i), by edge and then by row, holds
    slot_latent(seed, i, r) as float32, and received slots hold none."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(n=st.integers(1, 6), n_edges=st.integers(1, 4),
                      p_received=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def check(n, n_edges, p_received, seed):
        mask = np.random.default_rng(seed).random((n, n_edges)) < p_received
        z = missing_slot_latents(mask, seed)
        assert z.shape == ((~mask).sum(), 32) and z.dtype == np.float32
        missing = [(i, r) for i in range(n_edges) for r in range(n) if not mask[r, i]]
        for k, (i, r) in enumerate(missing):
            assert np.array_equal(z[k], slot_latent(seed, i, r).astype(np.float32))

    check()


def test_slot_latents_of_a_column_slice_are_the_whole_draws_rows():
    """Any mask and column slice [a, b): drawn with ``first_edge=a``, the slice's
    latents are the whole mask's draw for the missing slots of columns a..b."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(n=st.integers(1, 6), n_edges=st.integers(1, 5), data=st.data(),
                      p_received=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def check(n, n_edges, data, p_received, seed):
        a = data.draw(st.integers(0, n_edges - 1))
        b = data.draw(st.integers(a + 1, n_edges))
        mask = np.random.default_rng(seed).random((n, n_edges)) < p_received
        whole = missing_slot_latents(mask, seed)
        start, stop = (~mask[:, :a]).sum(), (~mask[:, :b]).sum()
        assert missing_slot_latents(mask[:, a:b], seed, a).tobytes() == whole[start:stop].tobytes()

    check()


# ---------------------------------------------------------------------------
# stacked VAEs
# ---------------------------------------------------------------------------

STACK_SEEDS = (11, 12, 13)


def _stack_batch(counts, seed=0):
    """(N, B, 8) rows, padding past counts[k] filled with large junk."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(len(counts), max(counts), 8)).astype(np.float32)
    for k, c in enumerate(counts):
        x[k, c:] = 1e3
    return x


def _close(a, b, rel=1e-5):
    return np.abs(np.asarray(a) - b).max() <= rel * np.abs(b).max()


def test_stack_members_start_as_the_per_seed_vaes():
    stack = Vae(8, latent_dim=4, hidden=6, seed=STACK_SEEDS)
    for k, s in enumerate(STACK_SEEDS):
        solo = Vae(8, latent_dim=4, hidden=6, seed=s).get_parameters()
        for key, p in stack.member(k).get_parameters().items():
            assert np.array_equal(p, solo[key]), key


def test_stacked_step_matches_per_member_steps():
    # padded batches: each member matches a stack of one on its own rows
    counts = np.array([5, 2, 7])
    stack = Vae(8, latent_dim=4, hidden=6, seed=STACK_SEEDS, lr=1e-2)
    solos = [Vae(8, latent_dim=4, hidden=6, seed=s, lr=1e-2) for s in STACK_SEEDS]
    stack_rngs = [np.random.default_rng(k) for k in range(3)]
    solo_rngs = [np.random.default_rng(k) for k in range(3)]
    for step in range(5):
        x = _stack_batch(counts, seed=step)
        losses = stack.train_step(x, stack_rngs, counts)
        for k, solo in enumerate(solos):
            loss = solo.train_step(x[k:k + 1, :counts[k]], [solo_rngs[k]], [counts[k]])[0]
            assert abs(losses[k] - loss) <= 1e-5 * abs(loss)
    for k, solo in enumerate(solos):
        ref = solo.get_parameters()
        for key, p in stack.member(k).get_parameters().items():
            assert _close(p, ref[key]), (k, key)
    assert list(stack.steps_run) == [5, 5, 5]

    # full batches: the stack is exactly three stacks of one
    stack = Vae(64, seed=STACK_SEEDS)
    solos = [Vae(64, seed=s) for s in STACK_SEEDS]
    stack_rngs = [np.random.default_rng(k) for k in range(3)]
    solo_rngs = [np.random.default_rng(k) for k in range(3)]
    full = [128] * 3
    for step in range(20):
        x = np.random.default_rng(step).normal(size=(3, 128, 64)).astype(np.float32)
        losses = stack.train_step(x, stack_rngs, full)
        for k, solo in enumerate(solos):
            assert np.array_equal(losses[k:k + 1], solo.train_step(x[k:k + 1], [solo_rngs[k]], [128]))
    for k, solo in enumerate(solos):
        assert np.array_equal(stack.flat[k:k + 1], solo.flat), k


def test_idle_member_is_untouched():
    stack = Vae(8, latent_dim=4, hidden=6, seed=STACK_SEEDS, lr=1e-2)
    before = stack.flat.copy()
    rngs = [np.random.default_rng(k) for k in range(3)]
    for step in range(3):
        counts = np.array([4, 0, 3])
        losses = stack.train_step(_stack_batch(counts, seed=step), rngs, counts)
        assert np.isnan(losses[1]) and np.isfinite(losses[[0, 2]]).all()
    assert np.array_equal(stack.flat[1], before[1])
    assert not np.array_equal(stack.flat[0], before[0])
    m, v = stack.optimizer.state
    assert not m[1].any() and not v[1].any()
    assert list(stack.optimizer.steps) == [3, 0, 3]
    assert list(stack.steps_run) == [3, 0, 3]
    assert stack.member(1).steps_run == 0


def test_member_is_a_view_of_the_stack():
    stack = Vae(8, latent_dim=4, hidden=6, seed=STACK_SEEDS)
    member = stack.member(2)
    for (_, _, p), (_, _, q) in zip(member.parameters(), stack.parameters()):
        assert np.shares_memory(p, stack.flat)
        assert np.array_equal(p, q[2:3])
    member.dec_out.params["b"][:] = 7.0
    assert np.all(stack.dec_out.params["b"][2] == 7.0)
    assert not np.any(stack.dec_out.params["b"][[0, 1]] == 7.0)
    z = np.random.default_rng(0).standard_normal((3, 5, 4))
    assert np.allclose(stack.decode(z)[2], member.decode(z[2:3])[0], rtol=1e-5, atol=1e-6)


def test_decode_leaves_the_cached_inputs_as_they_were():
    vae = Vae(8, latent_dim=4, hidden=6, seed=5)
    z = np.random.default_rng(1).standard_normal((1, 7, 4))
    vae.decode(z)
    assert vae.dec_hidden._x is None and vae.dec_out._x is None
    vae.train_step(np.ones((1, 3, 8), dtype=np.float32), [np.random.default_rng(2)], [3])
    cached = [layer._x for layer in vae.layers]
    vae.decode(z)
    assert all(layer._x is x for layer, x in zip(vae.layers, cached))
