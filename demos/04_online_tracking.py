"""Tracking an aging channel with mini-batch re-training.

The channel drifts between coherence blocks by an AR(1) rule
H(k) = eta H(k-1) + (1-eta) Theta(k).  After each step the combiner
trained on the old channel is stale; the online rule adds gamma times the
LS solution of a small sorted mini-batch taken through the *new* channel.

Accuracy below is normalized by a full-data closed-form refit under the
same stepped channel, so 1.0 means "as good as retraining from scratch".
Values above 1.0 are real: on a finite test set the cheap online model
sometimes beats the refit by a sample or two.
"""

import numpy as np

from airelm import DatasetConfig, ExperimentConfig, run_online

ds = DatasetConfig(name="synthetic", synth_size=400, synth_d=8, synth_separation=4.0)


def run(eta, seeds=8):
    cfg = ExperimentConfig(kind="online", seeds=seeds, master_seed=0, eta=eta,
                           n_r=1024, steps=3, iters_per_step=10,
                           dataset=ds)
    return run_online(cfg)


print("one fast-drift step (eta = 0.5), seed 1, width 1024:")
rows_fast = run(0.5)
trace = sorted((r for r in rows_fast if r.seed == 1 and r.step == 1),
               key=lambda r: r.iteration)
for r in trace:
    tag = "stale" if r.iteration == 0 else f"it {r.iteration:>2}"
    bar = "#" * int(50 * min(r.normalized_accuracy, 1.2))
    print(f"  {tag:>6}  {r.normalized_accuracy:.4f}  {bar}")
deficit = 1.0 - trace[0].normalized_accuracy
print(f"  the stale combiner is {100 * deficit:.1f} points below the refit."
      if deficit > 0 else
      "  the stale combiner is no worse than the refit: no deficit to repair.")

print()
print("medians over 8 seeds and 3 drift steps, width 1024:")
print(f"{'eta':>6}  {'stale':>7}  {'best':>7}  {'updates to 0.95':>16}")
needed = 0
for eta, rows in [(0.5, rows_fast), (0.9, run(0.9)), (0.99, run(0.99))]:
    stale, best, hit = [], {}, {}
    for r in rows:
        k = (r.seed, r.step)
        if r.iteration == 0:
            stale.append(r.normalized_accuracy)
        best[k] = max(best.get(k, 0.0), r.normalized_accuracy)
        if r.normalized_accuracy >= 0.95 and k not in hit:
            hit[k] = r.iteration
    for k in best:
        hit.setdefault(k, 11)
    updates = np.median(list(hit.values()))
    needed = max(needed, updates)
    print(f"{eta:>6}  {np.median(stale):>7.4f}  "
          f"{np.median(list(best.values())):>7.4f}  {updates:>16.0f}")

print()
if needed == 0:
    print("noiseless, at width 1024, the stale combiner already reaches 0.95")
    print("of the refit at every eta: this setting cannot show the update")
    print("rule tracking the drift.")
else:
    print(f"across eta, the update rule needs at most a median {needed:.0f}")
    print("updates to reach 0.95 of the refit.")
