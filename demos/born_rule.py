"""Outcome statistics of the completed measurement.

The sign of the amplified boundary value realizes the prepared weights
|c1|^2, |c2|^2, and the full distribution of the inferred outcome
x(t_f) / e^(g t_f) reproduces the two-packet outcome law.
"""

import math

import numpy as np

import qtraj as qt
from qtraj import analysis, model

print("sign fractions versus prepared weights (x1=4, r=2, g t_f=4, N=4e5):")
for c1_sq in (0.5, 0.3, 0.1):
    spec = qt.SuperpositionSpec(c1_sq, 4.0, 2.0)
    cfg = qt.MeasurementConfig.from_gtf(4.0, 40, n_samples=400_000, seed=101)
    batch = qt.simulate(spec, cfg, store_steps=())
    est = analysis.born_fraction(batch)
    z = (est.f_plus - c1_sq) / est.se
    print(f"  |c1|^2 = {c1_sq:.1f}: f_plus = {est.f_plus:.5f} +- {est.se:.5f} "
          f"(z = {z:+.2f}, exact boundary mass = {analysis.born_oracle(spec, cfg):.5f})")

print()
print("inferred-outcome histogram for the coherent cat (alpha0=2, g t_f=4):")
spec = qt.SuperpositionSpec.cat(2.0)
cfg = qt.MeasurementConfig.from_gtf(4.0, 40, n_samples=400_000, seed=19)
batch = qt.simulate(spec, cfg, store_steps=())
scaled = batch.x_at(40) / math.exp(4.0)
edges = np.linspace(-8, 8, 65)
counts, _ = np.histogram(scaled, bins=edges)
centers = 0.5 * (edges[:-1] + edges[1:])
dens = np.asarray(model.scaled_x_marginal(spec, centers, 4.0))
with open("born_outcomes.csv", "w") as fh:
    fh.write("x_scaled,empirical_density,analytic_density\n")
    for c, n, d in zip(centers, counts, dens):
        fh.write(f"{c:.4f},{n / cfg.n_samples / (edges[1] - edges[0]):.6f},{d:.6f}\n")
print("wrote born_outcomes.csv (empirical vs analytic outcome density)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    plt.figure(figsize=(7, 4))
    width = edges[1] - edges[0]
    plt.bar(centers, counts / cfg.n_samples / width, width=width, alpha=0.5,
            label="trajectories")
    plt.plot(centers, dens, "k-", lw=1.5, label="outcome law")
    plt.xlabel("inferred outcome x / e^(g t_f)")
    plt.ylabel("density")
    plt.legend()
    plt.tight_layout()
    plt.savefig("born_outcomes.png", dpi=150)
    print("wrote born_outcomes.png")
