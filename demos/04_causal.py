"""Interventions and counterfactuals through an autoregressive flow.

A flow is an SEM in disguise: noise coordinates are exogenous variables and
the inverse map is the structural assignment.  Pinning a coordinate while
resampling the rest answers do()-style interventional queries; encoding an
observation, pinning, and decoding answers counterfactuals.

Part one builds a flow that matches a linear SEM exactly and shows both query
types agree with closed-form answers.  Part two trains flows from samples and
scores them against the SEM: masking by the true adjacency beats an
uninformed dense-lower-triangular mask on both query types.
"""

import numpy as np

from strnn import adjacency, causal, datagen, flow, neural

D = 4


def exact_flow_part(sem):
    fl = causal.flow_from_linear_sem(sem)
    j, value = 1, 2.0
    mc = causal.flow_intervene_sample(
        fl, j, value, 200000, np.random.default_rng(0)).mean(axis=0)
    exact = causal.sem_intervene_mean_vector(sem, j, value)
    print(f"do(x{j} = {value}): flow Monte-Carlo mean vs closed form")
    for i in range(D):
        print(f"  x{i}: {mc[i]:+.4f} vs {exact[i]:+.4f}")

    x_obs = causal.sem_sample(sem, 1, rng=1)[0]
    cf_flow = causal.flow_counterfactual(fl, x_obs, j, value)
    cf_sem = causal.sem_counterfactual(sem, x_obs, j, value)
    print(f"counterfactual at one observation: "
          f"max |flow - sem| = {np.abs(cf_flow - cf_sem).max():.2e}")

    imse = causal.imse_report(fl, sem, value_count=8, n_samples=50000, rng=2)[0]
    cmse = causal.cmse_report(fl, sem, value_count=8, n_obs=200, rng=3)[0]
    print(f"exact-flow summary errors: I-MSE {imse:.2e} (Monte-Carlo floor), "
          f"C-MSE {cmse:.2e}\n")


def trained_part(sem):
    x = causal.sem_sample(sem, 500, 4)
    ds = datagen.make_dataset(x, "real", (0.6, 0.2, 0.2), 5)
    config = neural.TrainConfig(learning_rate=1e-2, batch_size=50,
                                max_epochs=200, early_stop_patience=40,
                                seed=0, lr_schedule="plateau",
                                plateau_factor=0.5, plateau_patience=12)
    print(f"flows trained on {len(ds.idx_train)} samples:")
    for name, A in (("true-adjacency", sem.adjacency()),
                    ("dense-lower", adjacency.dense_lower(D))):
        fl = flow.AffineFlow.build(A, 4, [16], 0)
        fl, _ = flow.train_flow(fl, ds, config)
        imse = causal.imse_report(fl, sem, value_count=8, n_samples=3000, rng=6)[0]
        cmse = causal.cmse_report(fl, sem, value_count=8, n_obs=200, rng=7)[0]
        print(f"  {name:>14}: I-MSE {imse:.4f}, C-MSE {cmse:.4f}")


def main():
    sem = causal.gen_linear_sem(D, rng=0)
    print(f"linear SEM on d={D} with weights:")
    for row in sem.weights:
        print("  " + " ".join(f"{w:+5.2f}" for w in row))
    print()
    exact_flow_part(sem)
    trained_part(sem)


if __name__ == "__main__":
    main()
