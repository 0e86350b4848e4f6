"""Interference fringes in the complementary and in the measured variable.

Two fringe manifestations of the superposition:

  * measuring x: the initial-time marginal of p carries fringes with
    period 2 pi sigma_x^2 / x1, damped by exp(-x1^2 / 2 sigma_x^2);
    conditioning on the + outcome does not remove them;
  * measuring p: the amplified boundary distribution itself is fringed,
    and in the inferred variable p / e^(|g| t_f) it approaches the
    interference outcome law of the cat state.
"""

import math

import numpy as np

import qtraj as qt
from qtraj import analysis, model

# measure x: fringes in p(0), with and without postselection
spec = qt.SuperpositionSpec(0.5, 1.0, 2.0)
cfg = qt.MeasurementConfig.from_gtf(3.0, 30, n_samples=400_000, seed=5)
batch = qt.simulate(spec, cfg, store_steps=())
sp, amp, freq = model.fringe_p(spec, 0.0)
edges = np.linspace(-4 * sp, 4 * sp, 81)
centers = 0.5 * (edges[:-1] + edges[1:])
width = edges[1] - edges[0]
counts_all, _ = np.histogram(batch.p_at(0), bins=edges)
counts_plus = analysis.conditional_p_distribution(batch, "+", 0, edges)
dens = np.asarray(model.marginal_p(spec, centers))
n_plus = counts_plus.sum()
with open("fringes_p_initial.csv", "w") as fh:
    fh.write("p,analytic,empirical_all,empirical_plus\n")
    for c, d, na, npl in zip(centers, dens, counts_all, counts_plus):
        fh.write(f"{c:.4f},{d:.6f},{na / cfg.n_samples / width:.6f},"
                 f"{npl / n_plus / width:.6f}\n")
print("wrote fringes_p_initial.csv")
# crest/trough contrast at the first antinode pair estimates the visibility
i_trough = np.abs(centers - 0.5 * math.pi / freq).argmin()
i_crest = np.abs(centers + 0.5 * math.pi / freq).argmin()
crest, trough = counts_all[i_crest], counts_all[i_trough]
print("fringe visibility at t = 0: %.3f empirical vs %.3f analytic" % (
    (crest - trough) / (crest + trough), amp))

# measure p: amplified fringes of the cat state
cat = qt.SuperpositionSpec.cat(2.0)
cfg_p = qt.MeasurementConfig.from_gtf(4.0, 40, setting=qt.Setting.P,
                                      n_samples=400_000, seed=6)
batch_p = qt.simulate(cat, cfg_p, store_steps=())
scaled = batch_p.p_at(40) / math.exp(4.0)
edges_p = np.linspace(-5, 5, 101)
centers_p = 0.5 * (edges_p[:-1] + edges_p[1:])
counts_p, _ = np.histogram(scaled, bins=edges_p)
dens_p = np.asarray(model.marginal_p_amplified_scaled(cat, centers_p))
with open("fringes_p_amplified.csv", "w") as fh:
    fh.write("p_scaled,analytic,empirical\n")
    for c, d, n in zip(centers_p, dens_p, counts_p):
        fh.write(f"{c:.4f},{d:.6f},{n / cfg_p.n_samples / (edges_p[1] - edges_p[0]):.6f}\n")
print("wrote fringes_p_amplified.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    ax1.plot(centers, dens, "k-", label="analytic")
    ax1.plot(centers, counts_all / cfg.n_samples / width, "C0.", ms=3, label="all")
    ax1.plot(centers, counts_plus / n_plus / width, "C3.", ms=3, label="+ outcome")
    ax1.set_xlabel("p at t = 0"), ax1.set_ylabel("density"), ax1.legend()
    ax2.plot(centers_p, dens_p, "k-", label="outcome law")
    ax2.plot(centers_p, counts_p / cfg_p.n_samples / (edges_p[1] - edges_p[0]),
             "C2.", ms=3, label="trajectories")
    ax2.set_xlabel("p / e^(|g| t_f)"), ax2.legend()
    fig.tight_layout()
    fig.savefig("interference_fringes.png", dpi=150)
    print("wrote interference_fringes.png")
