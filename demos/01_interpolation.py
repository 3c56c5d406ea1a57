"""When the hidden width matches the training size, the closed form interpolates.

The combiner solves min ||G w - t|| with `min_norm_lstsq`.  With a square,
generically full-rank G (width == number of training samples) the solution
drives the residual to numerical zero -- the random channel plus soft
limiter is expressive enough to hit every target exactly.  Narrower layers
leave a residual; wider ones keep residual ~0 and spend the slack on
shrinking ||w||.
"""

import numpy as np

from airelm import (
    HiddenLayer,
    RngStream,
    SUB_CHANNEL,
    SUB_SYNTH,
    hidden_matrix,
    split_standardize,
    synth_two_gaussians,
    train,
)

D_TRAIN = 64
SEED = 0

table = synth_two_gaussians(RngStream(SEED).split(SUB_SYNTH), 80, 8, 4.0)
data = split_standardize(table, 0.8, RngStream(SEED).split(0))
print(f"synthetic task: {data.x_train.shape[0]} train samples, d = {data.d}")
print()
print(f"{'width':>6}  {'train rmse':>12}  {'||w||':>8}")

for n_r in [8, 16, 32, 64, 128, 256]:
    h = RngStream(SEED).split(SUB_CHANNEL).normal(size=(n_r, data.d + 1))
    g = hidden_matrix(HiddenLayer(h_real=h), data.x_train)
    model = train(g, data.t_train)
    rmse = np.sqrt(np.mean((g @ model.w - data.t_train) ** 2))
    marker = "  <- square design" if n_r == D_TRAIN else ""
    print(f"{n_r:>6}  {rmse:>12.3e}  {np.sqrt(model.receive_power):>8.3f}{marker}")

print()
print("the residual collapses to ~1e-14 once width reaches the training size,")
print("then stays there while the minimum-norm rule keeps ||w|| in check.")
