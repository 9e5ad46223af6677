import numpy as np
import pytest

from edgefuse.vae import (Vae, fill, kl_standard_normal, missing_slot_latents,
                          slot_latent, train_vae)

from helpers import max_rel_err, numeric_grad


# ---------------------------------------------------------------------------
# training / loss
# ---------------------------------------------------------------------------

def test_constant_rows_drive_reconstruction_to_zero():
    emb = np.full((32, 8), 0.7, dtype=np.float32)
    vae, trace = train_vae(emb, epochs=600, seed=0, lr=0.01)
    eps = np.random.default_rng(1).standard_normal((32, vae.latent_dim))
    _, recon, kl = vae.loss_and_grads(emb, eps)
    assert recon < 0.05
    assert np.isfinite(kl) and 0.0 <= kl < 10.0
    assert trace[-1] < trace[0] * 0.01


def test_kl_zero_iff_standard_normal():
    assert kl_standard_normal(np.zeros((3, 32)), np.zeros((3, 32))) == 0.0
    assert kl_standard_normal(np.full((1, 4), 0.5), np.zeros((1, 4))) > 0.0
    assert kl_standard_normal(np.zeros((1, 4)), np.full((1, 4), 0.3)) > 0.0


def test_kl_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(1, 4))
    logvar = rng.normal(scale=0.5, size=(1, 4))
    closed = kl_standard_normal(mu, logvar)
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
        return vae.loss_and_grads(x, eps)[0]

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

def test_generate_zero_count_keeps_width():
    vae = Vae(16, seed=0)
    out = vae.generate(0, seed=1)
    assert out.shape == (0, 16)


def test_generate_deterministic_per_seed():
    vae = Vae(8, seed=2)
    a = vae.generate(10, seed=42)
    b = vae.generate(10, seed=42)
    c = vae.generate(10, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generated_mean_matches_training_statistics():
    # Gaussian toy corpus: the generator's sample mean should sit within
    # 3 sigma / sqrt(n) of the corpus mean per coordinate
    rng = np.random.default_rng(100)
    corpus_mean = rng.normal(size=8)
    corpus = (corpus_mean + 0.05 * rng.normal(size=(256, 8))).astype(np.float32)
    vae, _ = train_vae(corpus, epochs=4000, seed=0, lr=3e-3, batch_size=256)
    gen = vae.generate(500, seed=50)
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
        out = fill(policy, values, mask, vaes=vaes, seed=1)
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
    vaes = [Vae(4, seed=i) for i in range(3)]
    for policy in ("vae", "zero", "mean", "max"):
        out = fill(policy, values, mask, vaes=vaes, seed=2)
        assert np.array_equal(out[mask], values[mask])          # bit-identical
        assert out is not values


def test_vae_policy_uses_matching_edge_model():
    values, mask = _matrix(n=4)
    mask[1, 0] = False
    mask[1, 2] = False
    vaes = [Vae(4, seed=i) for i in range(3)]
    out = fill("vae", values, mask, vaes=vaes, seed=9)
    z0 = slot_latent(9, 0, 1)
    z2 = slot_latent(9, 2, 1)
    assert np.allclose(out[1, 0], vaes[0].decode(z0[None, :])[0])
    assert np.allclose(out[1, 2], vaes[2].decode(z2[None, :])[0])


def test_mean_policy_without_received_vectors_errors():
    values, mask = _matrix(n=3)
    mask[:, 1] = False
    with pytest.raises(ValueError, match="no received vectors"):
        fill("mean", values, mask)
    with pytest.raises(ValueError, match="no received vectors"):
        fill("max", values, mask)
    # zero policy has no such requirement
    out = fill("zero", values, mask)
    assert np.all(out[:, 1] == 0.0)


def test_unknown_policy_rejected():
    values, mask = _matrix()
    with pytest.raises(ValueError, match="unknown fill policy"):
        fill("median", values, mask)


def test_slot_latents_independent_of_other_slots():
    mask_a = np.ones((5, 2), dtype=bool)
    mask_a[2, 1] = False
    mask_b = mask_a.copy()
    mask_b[4, 0] = False                  # extra missing slot elsewhere
    idx = np.arange(5)
    za = missing_slot_latents(mask_a, idx, seed=7)
    zb = missing_slot_latents(mask_b, idx, seed=7)
    rows_a, lat_a = za[1]
    rows_b, lat_b = zb[1]
    assert np.array_equal(rows_a, rows_b)
    assert np.array_equal(lat_a, lat_b)


def test_generated_fill_width_for_any_count():
    vae = Vae(12, seed=4)
    for count in (0, 1, 5):
        assert vae.generate(count, seed=0).shape == (count, 12)


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
    counts = np.array([5, 2, 7])
    stack = Vae(8, latent_dim=4, hidden=6, seed=STACK_SEEDS, lr=1e-2)
    solos = [Vae(8, latent_dim=4, hidden=6, seed=s, lr=1e-2) for s in STACK_SEEDS]
    stack_rngs = [np.random.default_rng(k) for k in range(3)]
    solo_rngs = [np.random.default_rng(k) for k in range(3)]
    for step in range(5):
        x = _stack_batch(counts, seed=step)
        losses = stack.train_step(x, stack_rngs, counts)
        for k, solo in enumerate(solos):
            loss = solo.train_step(x[k, :counts[k]], solo_rngs[k])
            assert abs(losses[k] - loss) <= 1e-5 * abs(loss)
    for k, solo in enumerate(solos):
        ref = solo.get_parameters()
        for key, p in stack.member(k).get_parameters().items():
            assert _close(p, ref[key]), (k, key)
    assert list(stack.steps_run) == [5, 5, 5]


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
        assert np.array_equal(p, q[2])
    member.dec_out.params["b"][:] = 7.0
    assert np.all(stack.dec_out.params["b"][2] == 7.0)
    assert not np.any(stack.dec_out.params["b"][[0, 1]] == 7.0)
    z = np.random.default_rng(0).standard_normal((3, 5, 4))
    assert np.allclose(stack.decode(z)[2], member.decode(z[2]), rtol=1e-5, atol=1e-6)
