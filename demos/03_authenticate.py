"""End-to-end authentication on three synthetic users.

Builds three users with distinct AR(1) speed dynamics, picks the MAU
length with the slope rule, trains the conv + recurrent classifier to
recognize user u1, and evaluates against held-out data -- including a
"blind attack" by a user the model never saw during training.

Takes ~15 s. Run from the repo root:  python3 demos/03_authenticate.py
"""

import numpy as np

from mouseauth.evaluation import blind_attack_eval, build_splits
from mouseauth.mau import apen_profile, segment
from mouseauth.model import ModelConfig, TrainConfig, train
from mouseauth.synth import SynthSpec, generate_user_pool

specs = {
    "u1": [SynthSpec("ar1", {"phi": 0.9, "sigma": 1.0, "mean": 10.0}, 30000, seed=101 + i)
           for i in range(2)],
    "u2": [SynthSpec("ar1", {"phi": 0.5, "sigma": 2.0, "mean": 10.0}, 30000, seed=201 + i)
           for i in range(2)],
    "u3": [SynthSpec("ar1", {"phi": 0.2, "sigma": 4.0, "mean": 15.0}, 30000, seed=301 + i)
           for i in range(2)],
}
pool = generate_user_pool(specs)

L = apen_profile(pool["u1"][0]).selected_length
print(f"MAU length from slope rule: {L}")

# each user's MAUs: the rows of one (n, L) array, session after session
users = {u: np.concatenate([segment(vel, L).rows for vel in vels]) for u, vels in pool.items()}
for u, rows in users.items():
    print(f"  {u}: {len(rows)} MAUs")

# legit user u1; one user excluded from training entirely to play attacker
split = build_splits(users, "u1", ratio=5.0, unseen_count=1, seed=0)
print(f"unseen attacker: {split.unseen_users[0]}")

mcfg = ModelConfig(input_length=L, conv_channels=8, kernel_size=5,
                   res_blocks=1, res_kernel=3, gru_hidden=16, seed=0)
tcfg = TrainConfig(epochs=20, batch_size=32, seed=0)

print("training...")
params, history = train(*split.train_arrays(), mcfg, tcfg)
print(f"loss: {history[0]:.3f} -> {history[-1]:.3f} over {len(history)} epochs")

report = blind_attack_eval(params, split, mcfg)
print(f"\nAUC  {report.auc:.3f}")
print(f"EER  {report.eer:.3f}  (threshold {report.eer_threshold:.3f})")
print(f"F1   {report.f1:.3f}")
print(f"DSR  {report.dsr:.3f}  (unseen-user attacks rejected at threshold 0.5)")
