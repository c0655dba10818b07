"""Acceptance suite.

One test per acceptance criterion, each asserting the stated tolerance inside
the stated time budget and printing a single summary line.  Training-based
criteria use fixed seeds and configurations chosen to fit their budgets with
comfortable margin.
"""

import time

import numpy as np

from strnn import adjacency, causal, datagen, factorizer, flow, neural
from strnn.errors import BudgetExceededError

HALF_LOG_2PIE = 0.5 * np.log(2.0 * np.pi * np.e)


def _report(tag, detail):
    print(f"[{tag}] PASS {detail}")


# ---------------------------------------------------------------------------
# Shared helpers


def _jitter_net(net, seed, scale):
    rng = np.random.default_rng(seed)
    for W, M in zip(net.weights, net.masks):
        W += scale * rng.standard_normal(W.shape) * M
    for b in net.biases:
        b += scale * rng.standard_normal(b.shape)
    return net


def _hidden_preacts(net, x):
    """The pre-activations of each hidden layer of ``net`` at ``x``."""
    preacts, h = [], x
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        preacts.append(h @ W.T + b)
        h = np.maximum(preacts[-1], 0.0)
    return preacts


def _conditioned_net(seed, head):
    """A random small jittered net whose ReLU pre-activations all clear a
    margin on the probe batch, so central differences stay on one linear
    piece.  Returns (net, batch) or None when the margin check fails."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    h = int(rng.integers(d, 13))
    A = adjacency.gen_random_sparse(d, 0.5, rng)
    masks = factorizer.factor_multilayer(A, [h], "greedy")
    net = neural.MaskedMLP.from_masks(masks, head, rng)
    _jitter_net(net, seed + 5000, 0.3)
    jit = np.random.default_rng(seed + 9000)
    if head == "binary":
        x = (jit.random((6, d)) < 0.5).astype(np.float64)
    else:
        x = jit.standard_normal((6, d))
    margin = min((np.abs(p).min() for p in _hidden_preacts(net, x)), default=1.0)
    return (net, x) if margin > 1e-3 else None


def _conditioned_flow(d, n_layers, hidden, x):
    """A jittered flow kept away from ReLU kinks and the scale clamp on x."""
    for seed in range(300):
        fl = flow.AffineFlow.build(adjacency.gen_random_sparse(d, 0.5, seed),
                                   n_layers, hidden, seed)
        for net in fl.layers:
            _jitter_net(net, seed + 7000, 0.1)
        ok = True
        levels, _ = flow._to_noise(fl, x, keep_levels=True)
        if np.abs(levels[0]).max() > 10.0:
            continue
        # levels come back noise-side first; reversing layers and the
        # non-noise levels pairs each conditioner with the input it consumed.
        for net, v in zip(reversed(fl.layers), reversed(levels[1:])):
            if any(np.abs(p).min() <= 1e-3 for p in _hidden_preacts(net, v)):
                ok = False
                break
            if np.abs(net.forward(v)[:, net.dim:]).max() >= neural.LOG_SIGMA_CLAMP - 0.1:
                ok = False
                break
        if ok:
            return fl
    raise AssertionError("no well-conditioned flow found")


def _fd_grads(f, params, eps):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = f()
            p[idx] = orig - eps
            lo = f()
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def _max_rel_err(analytic, numeric):
    scale = max(max(np.abs(n).max() for n in numeric), 1e-10)
    worst = max(np.abs(a - n).max() for a, n in zip(analytic, numeric))
    return worst / scale


def _standardized_dataset(gen, split_seed):
    """The dataset of ``gen``, a real one standardized by its training
    split's means m and deviations s, and its mean test NLL under the
    generator's own law, in the dataset's units: x -> (x - m) / s moves
    every NLL by -sum_j log s_j."""
    x = gen.x
    tr, va, te = datagen.split_indices(x.shape[0], (0.6, 0.2, 0.2), split_seed)
    if gen.kind == "real":
        m = x[tr].mean(axis=0)
        s = np.maximum(x[tr].std(axis=0), 1e-8)
        x = (x - m) / s
        exact = datagen.true_nll_gaussian(gen, gen.x[te]).mean() - np.log(s).sum()
    else:
        exact = datagen.true_nll_binary(gen, x[te]).mean()
    return neural.Dataset(x, gen.kind, tr, va, te), float(exact)


def _train_density_model(model, A, ds, seed, hidden):
    head = "binary" if ds.kind == "binary" else "gaussian"
    if model == "strnn":
        masks = factorizer.factor_multilayer(A, hidden, "greedy")
    else:
        masks = factorizer.made_masks(ds.x.shape[1], hidden, seed,
                                      natural_ordering=True)
    net = neural.MaskedMLP.from_masks(masks, head, seed)
    tc = neural.TrainConfig(learning_rate=1e-3, batch_size=200,
                            max_epochs=600, early_stop_patience=80, seed=seed,
                            lr_schedule="plateau", plateau_factor=0.5,
                            plateau_patience=15)
    net, _ = neural.train(net, ds, tc)
    return float(np.mean(neural.nll(net, ds.test_x)))


# ---------------------------------------------------------------------------
# Criteria


def test_c01_sparsity_exact_on_random_instances():
    """All factorization methods reproduce the adjacency's zero pattern
    exactly on 500 random instances (d 3-30, thresholds 0.1-0.9, 1-3 hidden
    layers, widths d-4d); the exact method is checked whenever it finishes
    within its budget."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250817)
    exact_runs = 0
    for _ in range(500):
        d = int(rng.integers(3, 31))
        threshold = float(rng.uniform(0.1, 0.9))
        widths = [int(rng.integers(d, 4 * d + 1))
                  for _ in range(int(rng.integers(1, 4)))]
        A = adjacency.gen_random_sparse(d, threshold, rng)
        for method in ("greedy", "zuko"):
            product = factorizer.mask_product(
                factorizer.factor_multilayer(A, widths, method))
            assert factorizer.check_sparsity_equal(product, A), \
                f"{method} broke sparsity at d={d} widths={widths}"
        try:
            masks = factorizer.factor_multilayer(A, widths, "exact")
        except BudgetExceededError:
            continue
        exact_runs += 1
        assert factorizer.check_sparsity_equal(factorizer.mask_product(masks),
                                               A)
    elapsed = time.perf_counter() - t0
    assert exact_runs > 0
    assert elapsed < 60.0
    _report("C01", f"500/500 sparsity-exact ({exact_runs} within exact "
                   f"budget) in {elapsed:.1f}s")


def test_c02_exact_matches_or_beats_greedy():
    """The exact connection-count solver never scores below greedy across 90
    random d=6, h=8 instances, and strictly beats it somewhere."""
    t0 = time.perf_counter()
    strict = 0
    for t_idx in range(9):
        threshold = 0.1 * (t_idx + 1)
        for inst in range(10):
            A = adjacency.gen_random_sparse(6, threshold, 1000 * t_idx + inst)
            gV, gW = factorizer.greedy_factor_layer(A, 8)
            g_obj = factorizer.objective_value(factorizer.mask_product([gW, gV]))
            eV, eW = factorizer.exact_factor_layer(A, 8)
            e_prod = factorizer.mask_product([eW, eV])
            assert factorizer.check_sparsity_equal(e_prod, A)
            e_obj = factorizer.objective_value(e_prod)
            assert e_obj >= g_obj - 1e-9, \
                f"exact {e_obj} < greedy {g_obj} at threshold {threshold}"
            if e_obj > g_obj + 1e-9:
                strict += 1
    elapsed = time.perf_counter() - t0
    assert strict >= 1
    assert elapsed < 300.0
    _report("C02", f"exact >= greedy on 90/90, strictly better on {strict}, "
                   f"in {elapsed:.2f}s")


def test_c03_narrow_made_masks_lose_dependencies():
    """With h=2 at d=4 a degree-based random mask pair cannot cover all three
    required degrees, so some strictly-lower entry of the product is always
    zero; the all-minimal degree vector appears with frequency 1/9."""
    t0 = time.perf_counter()
    lower = np.tril(np.ones((4, 4)), -1)
    extra_zero = 0
    all_minimal = 0
    n_seeds = 2000
    for seed in range(n_seeds):
        masks = factorizer.made_masks(4, [2], seed, natural_ordering=True)
        product = factorizer.mask_product(masks)
        if ((product == 0) & (lower == 1)).any():
            extra_zero += 1
        if (masks[0].sum(axis=1) == 1).all():
            all_minimal += 1
    elapsed = time.perf_counter() - t0
    freq = all_minimal / n_seeds
    assert extra_zero >= 1
    assert abs(freq - 1.0 / 9.0) < 0.03, f"degree-vector frequency {freq}"
    assert elapsed < 10.0
    _report("C03", f"{extra_zero}/{n_seeds} seeds lose a dependency; "
                   f"minimal-degree frequency {freq:.4f} (target 0.1111 "
                   f"+/- 0.03) in {elapsed:.1f}s")


def test_c04_gradients_match_finite_differences():
    """Analytic gradients agree with central finite differences (eps=1e-5)
    to relative error < 1e-4 on 20 random small networks and on the flow
    likelihood."""
    t0 = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    for head in ("binary", "gaussian"):
        found = 0
        seed = 0
        while found < 10:
            built = _conditioned_net(seed + (0 if head == "binary" else 500),
                                     head)
            seed += 1
            assert seed < 400, "conditioning search exhausted"
            if built is None:
                continue
            found += 1
            net, x = built
            analytic, _ = neural.gradients(net, x, {})
            numeric = _fd_grads(lambda: neural.mean_nll(net, x),
                                net.params(), eps)
            worst = max(worst, _max_rel_err(analytic, numeric))
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 4))
    fl = _conditioned_flow(4, 2, [6], x)
    # One stack per layer position, each (K, ...) like fl.params().
    stacked, _ = flow.gradients(fl, x, {})
    assert [g.shape for g in stacked] == [p.shape for p in fl.params()]
    numeric = _fd_grads(lambda: flow.mean_nll(fl, x), fl.params(), eps)
    worst = max(worst, _max_rel_err(stacked, numeric))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"worst relative error {worst}"
    assert elapsed < 30.0
    _report("C04", f"worst relative error {worst:.2e} over 20 nets + flow "
                   f"in {elapsed:.1f}s")


def test_c05_structural_audits_find_no_violations():
    """The audit (interval bounds and the weight support) proves that no
    output reads a forbidden input on random nets, trained nets, and every
    layer of built and trained flows."""
    t0 = time.perf_counter()
    audited = 0
    for seed in range(10):
        for head in ("binary", "gaussian"):
            A = adjacency.gen_random_sparse(5, 0.4, seed)
            masks = factorizer.factor_multilayer(A, [8], "greedy")
            net = _jitter_net(neural.MaskedMLP.from_masks(masks, head, seed),
                              seed, 0.5)
            assert neural.audit_invariance(net) == []
            audited += 1

    A = adjacency.gen_prev_k(6, 2)
    gen = datagen.gen_gaussian(A, 300, 1)
    ds = datagen.make_dataset(gen.x, "real", (0.6, 0.2, 0.2), 2)
    masks = factorizer.factor_multilayer(A, [12], "greedy")
    net = neural.MaskedMLP.from_masks(masks, "gaussian", 0)
    tc = neural.TrainConfig(learning_rate=1e-3, batch_size=50, max_epochs=40,
                            early_stop_patience=40, seed=0)
    net, _ = neural.train(net, ds, tc)
    assert neural.audit_invariance(net) == []
    audited += 1

    bgen = datagen.gen_binary(A, 300, 4)
    bds = datagen.make_dataset(bgen.x, "binary", (0.6, 0.2, 0.2), 5)
    bnet = neural.MaskedMLP.from_masks(masks, "binary", 1)
    bnet, _ = neural.train(bnet, bds, tc)
    assert neural.audit_invariance(bnet) == []
    audited += 1

    fl = flow.AffineFlow.build(adjacency.gen_random_sparse(6, 0.5, 7), 3,
                               [10], 7)
    for net_ in fl.layers:
        _jitter_net(net_, 8, 0.3)
    assert flow.audit_flow(fl) == []
    audited += len(fl.layers)

    sem = causal.gen_linear_sem(4, rng=10)
    x = causal.sem_sample(sem, 400, 11)
    fds = datagen.make_dataset(x, "real", (0.6, 0.2, 0.2), 12)
    tfl = flow.AffineFlow.build(sem.adjacency(), 3, [8], 13)
    tfl, _ = flow.train_flow(tfl, fds, neural.TrainConfig(
        learning_rate=1e-2, batch_size=50, max_epochs=40,
        early_stop_patience=40, seed=13))
    assert flow.audit_flow(tfl) == []
    audited += len(tfl.layers)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("C05", f"zero violations across {audited} audited models/layers "
                   f"in {elapsed:.1f}s")


def test_c06_flow_inversion_roundtrip():
    """Mapping 1000 points to noise and back reproduces them to 1e-8 on a
    d=15, five-layer flow."""
    t0 = time.perf_counter()
    fl = flow.AffineFlow.build(adjacency.gen_random_sparse(15, 0.5, 0), 5,
                               [30], 0)
    for net in fl.layers:
        _jitter_net(net, 1, 0.1)
    x = np.random.default_rng(3).standard_normal((1000, 15))
    z, _ = flow.to_noise(fl, x)
    x_back = flow.from_noise(fl, z)
    err_data = np.abs(x - x_back).max()
    z0 = np.random.default_rng(4).standard_normal((1000, 15))
    z_back, _ = flow.to_noise(fl, flow.from_noise(fl, z0))
    err_noise = np.abs(z0 - z_back).max()
    elapsed = time.perf_counter() - t0
    assert err_data < 1e-8, f"data round trip error {err_data}"
    assert err_noise < 1e-8, f"noise round trip error {err_noise}"
    assert elapsed < 10.0
    _report("C06", f"round-trip errors {err_data:.2e} (data) / "
                   f"{err_noise:.2e} (noise) in {elapsed:.1f}s")


def test_c07_flow_reaches_linear_sem_optimum():
    """A five-layer structured flow trained on 5000 linear-SEM samples gets
    within 0.1 nats/dimension of the analytic Gaussian optimum, which is
    d/2 log(2 pi e) because the triangular system has unit Jacobian."""
    t0 = time.perf_counter()
    sem = causal.gen_linear_sem(5, rng=1)
    x = causal.sem_sample(sem, 5000, 2)
    ds = datagen.make_dataset(x, "real", (0.6, 0.2, 0.2), 3)
    fl = flow.AffineFlow.build(sem.adjacency(), 5, [16], 0)
    tc = neural.TrainConfig(learning_rate=1e-2, batch_size=100,
                            max_epochs=300, early_stop_patience=50, seed=0,
                            lr_schedule="plateau", plateau_factor=0.5,
                            plateau_patience=15)
    fl, history = flow.train_flow(fl, ds, tc)
    per_dim = float(np.mean(flow.nll(fl, ds.test_x))) / 5.0
    gap = per_dim - HALF_LOG_2PIE
    elapsed = time.perf_counter() - t0
    assert gap < 0.1, f"gap to optimum {gap:.4f} nats/dim"
    assert gap > -0.5
    assert elapsed < 600.0
    _report("C07", f"test NLL {per_dim:.4f}/dim vs optimum "
                   f"{HALF_LOG_2PIE:.4f} (gap {gap:+.4f} < 0.1), "
                   f"{len(history)} epochs in {elapsed:.1f}s")


def test_c08_exact_sem_flow_causal_errors_vanish():
    """A flow constructed from SEM weights answers counterfactuals exactly
    (< 1e-12) and its interventional error matches pure Monte-Carlo noise at
    100000 samples."""
    t0 = time.perf_counter()
    d = 6
    sem = causal.gen_linear_sem(d, rng=8)
    fl = causal.flow_from_linear_sem(sem)
    cmse = causal.cmse_report(fl, sem, value_count=8, n_obs=100, rng=81)[0]
    samples = 100000
    imse = causal.imse_report(fl, sem, value_count=8, n_samples=samples,
                              rng=82)[0]

    values = causal.intervention_values(8)
    expected = 0.0
    for j in range(d):
        W_cut = sem.weights.copy()
        W_cut[j, :] = 0.0
        Minv = np.linalg.inv(np.eye(d) - W_cut)
        noise_cols = [m for m in range(d) if m != j]
        var = (Minv[:, noise_cols] ** 2).sum(axis=1)
        expected += len(values) * var[j + 1:].sum() / samples
    expected /= len(values) * d * (d + 1) / 2

    elapsed = time.perf_counter() - t0
    assert cmse < 1e-12, f"counterfactual MSE {cmse}"
    assert 0.0 < imse < 10.0 * expected, \
        f"interventional MSE {imse} vs Monte-Carlo expectation {expected}"
    assert elapsed < 120.0
    _report("C08", f"C-MSE {cmse:.2e} < 1e-12; I-MSE {imse:.2e} vs "
                   f"MC expectation {expected:.2e} in {elapsed:.1f}s")


def test_c09_structured_beats_made_density_estimation():
    """Structured masks reach a mean test NLL at or below degree-based random
    masks on matched binary and Gaussian datasets, averaged over five
    training seeds.  The report gives each config's gap to the exact test
    NLL under the generating law (``datagen.true_nll_binary`` and
    ``true_nll_gaussian``)."""
    t0 = time.perf_counter()
    data_seed = 100
    configs = {
        "binary random_sparse": (
            adjacency.gen_random_sparse(20, 0.8, data_seed),
            lambda A: datagen.gen_binary(A, 5000, data_seed + 1)),
        "gaussian prev_2": (
            adjacency.gen_prev_k(20, 2),
            lambda A: datagen.gen_gaussian(A, 2000, data_seed + 1)),
        "gaussian random_sparse": (
            adjacency.gen_random_sparse(20, 0.8, data_seed),
            lambda A: datagen.gen_gaussian(A, 2000, data_seed + 1)),
    }
    lines = []
    for name, (A, make) in configs.items():
        ds, exact = _standardized_dataset(make(A), data_seed + 2)
        means = {}
        for model in ("strnn", "made"):
            nlls = [_train_density_model(model, A, ds, seed, [320])
                    for seed in range(5)]
            means[model] = float(np.mean(nlls))
        assert means["strnn"] <= means["made"], \
            f"{name}: strnn {means['strnn']:.4f} > made {means['made']:.4f}"
        lines.append(f"{name} {means['strnn']:.3f} <= {means['made']:.3f} (exact "
                     f"{exact:.3f}, gaps {means['strnn'] - exact:+.3f} / "
                     f"{means['made'] - exact:+.3f})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _report("C09", "; ".join(lines) + f" in {elapsed:.0f}s")


def test_c10_structured_flow_beats_dense_on_causal_queries():
    """Flows masked by the true adjacency answer interventional and
    counterfactual queries at least as well as dense-lower-triangular flows,
    averaged over five seeded runs on a d=5 linear SEM with 500 samples."""
    t0 = time.perf_counter()
    sem = causal.gen_linear_sem(5, rng=1)
    x = causal.sem_sample(sem, 500, 2)
    ds = datagen.make_dataset(x, "real", (0.6, 0.2, 0.2), 3)
    results = {}
    for name, A in (("structured", sem.adjacency()),
                    ("dense", adjacency.dense_lower(5))):
        imses, cmses = [], []
        for seed in range(5):
            fl = flow.AffineFlow.build(A, 5, [16], seed)
            tc = neural.TrainConfig(learning_rate=1e-2, batch_size=50,
                                    max_epochs=300, early_stop_patience=50,
                                    seed=seed, lr_schedule="plateau",
                                    plateau_factor=0.5, plateau_patience=15)
            fl, _ = flow.train_flow(fl, ds, tc)
            imses.append(causal.imse_report(fl, sem, value_count=8,
                                            n_samples=3000, rng=1000 + seed)[0])
            cmses.append(causal.cmse_report(fl, sem, value_count=8, n_obs=200,
                                            rng=2000 + seed)[0])
        results[name] = (float(np.mean(imses)), float(np.mean(cmses)))
    s_imse, s_cmse = results["structured"]
    d_imse, d_cmse = results["dense"]
    elapsed = time.perf_counter() - t0
    assert s_imse <= d_imse, f"I-MSE {s_imse:.5f} > dense {d_imse:.5f}"
    assert s_cmse <= d_cmse, f"C-MSE {s_cmse:.5f} > dense {d_cmse:.5f}"
    assert elapsed < 1800.0
    _report("C10", f"I-MSE {s_imse:.4f} <= {d_imse:.4f}; "
                   f"C-MSE {s_cmse:.4f} <= {d_cmse:.4f} in {elapsed:.0f}s")


def test_c11_greedy_factorizes_d2000_within_a_second():
    """Single-layer greedy factorization at d = h = 2000 finishes in under
    one second (generation and verification excluded from the timing)."""
    A = adjacency.gen_random_sparse(2000, 0.5, 0)
    t0 = time.perf_counter()
    M_V, M_W = factorizer.greedy_factor_layer(A, 2000)
    elapsed = time.perf_counter() - t0
    # float matmul keeps this verification out of numpy's slow integer path
    product = M_V.astype(np.float64) @ M_W.astype(np.float64)
    assert factorizer.check_sparsity_equal(product, A)
    assert elapsed < 1.0, f"greedy took {elapsed:.3f}s"
    _report("C11", f"d=2000 greedy factorization in {elapsed:.3f}s")
