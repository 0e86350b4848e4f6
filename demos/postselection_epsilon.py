"""Postselected initial-time state and its uncertainty product.

Conditioning the linked pairs on the sign of the amplified outcome defines
an inferred distribution over (x(0), p(0)).  After removing the antinormal
vacuum unit, its x and p spreads multiply to less than one for moderate
packet separations: the inferred object is sharper than any density
operator allows, approaching the limit one only as the separation grows.
Every sampled point is cross-checked against a deterministic quadrature
oracle built from the backward transition kernel and the analytic linking
conditional.
"""

import qtraj as qt
from qtraj import analysis

print("coherent-packet family, g t_f = 4, N = 4e5 per point, + outcome:")
print(" x1   eps sampled      eps oracle    var_x-1   var_p-1   n_selected")
rows = []
for i, x1 in enumerate((1.0, 2.0, 4.0, 8.0)):
    spec = qt.SuperpositionSpec(0.5, x1, 0.0)
    cfg = qt.MeasurementConfig.from_gtf(4.0, 40, n_samples=400_000, seed=300 + i)
    batch = qt.simulate(spec, cfg, store_steps=())
    rep = analysis.postselect(batch, "+")
    oracle = analysis.postselect_oracle(spec, cfg, "+")
    rows.append((x1, rep, oracle))
    print(f"{x1:4.0f}  {rep.epsilon:.4f}+-{rep.se_epsilon:.4f}  "
          f"{oracle.epsilon:.6f}  {rep.var_x_cond:8.4f}  {rep.var_p_cond:8.4f}  "
          f"{rep.n_selected}")

print()
print("The product dips well below one at small separations (interference")
print("narrows p while conditioning narrows x) and climbs back toward one:")
print("beyond x1 ~ 4 the analytic gap to one is below 1e-4, smaller than the")
print("sampling error of any practical run.")

with open("postselection_epsilon.csv", "w") as fh:
    fh.write("x1,eps_sampled,eps_se,eps_oracle,var_x_cond,var_p_cond\n")
    for x1, rep, oracle in rows:
        fh.write(f"{x1},{rep.epsilon:.6f},{rep.se_epsilon:.6f},"
                 f"{oracle.epsilon:.8f},{rep.var_x_cond:.6f},{rep.var_p_cond:.6f}\n")
print("wrote postselection_epsilon.csv")
