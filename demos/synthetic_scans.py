"""Synthesize coincidence scans and recover the injected parameters.

Two scan types: a cycle-count sweep fitted with a per-cycle survival model,
and an analyzer rotation fitted with a fringe model. Both run twice, once
noiseless and once with Poisson sampling, to show what the error bars do.
Run with: python demos/synthetic_scans.py
"""
import numpy as np

from loopmem import (
    D, DecayScan, H, MalusScan, MemoryConfig, TransmissionParams, efficiency,
    fit_decay, fit_malus, run_scan, synth_malus_dataset,
)

params = TransmissionParams(0.541, 0.419, 0.50, 0.662)
cfg = MemoryConfig.from_params(params, delta_tau=36.5)


def fit_from(ds):
    return fit_decay(list(ds.n_cycles), ds.counts())


print("cycle-count sweep, true per-cycle survival 0.50")
rate = 1e4 / (efficiency(params, 1) * 60.0)  # peak mean of 1e4 counts

exact = run_scan(cfg, H, DecayScan(), pair_rate=rate, acquisition_s=60.0, seed=None)
fit = fit_from(exact)
print(f"  noiseless: gamma = {fit.gamma_per_cycle:.12f} "
      f"+- {fit.sigma_gamma:.2e}")

for seed in (1, 2, 3):
    ds = run_scan(cfg, H, DecayScan(), pair_rate=rate, acquisition_s=60.0, seed=seed)
    fit = fit_from(ds)
    pull = (fit.gamma_per_cycle - 0.50) / fit.sigma_gamma
    print(f"  seed {seed}:    gamma = {fit.gamma_per_cycle:.4f} "
          f"+- {fit.sigma_gamma:.4f}  (pull {pull:+.2f} sigma)")
print()

print("analyzer rotation through the memory, diagonal input, one cycle")
angles = tuple(np.linspace(0.0, np.pi, 13))
ds = run_scan(cfg, D, MalusScan(angles), pair_rate=rate,
              acquisition_s=60.0, seed=7)
fit = fit_malus(ds.values(), ds.counts())
print(f"  visibility {fit.visibility:.4f} +- {fit.sigma_visibility:.4f}, "
      f"fringe axis {fit.theta0:.4f} rad (ideal memory: V=1 at pi/4)")
print()

print("fringe generator with a prescribed visibility, fitted back")
for vis in (0.7646, 0.8609, 1.0):
    ds = synth_malus_dataset(angles, 2e4 / (1 + vis), vis, 0.3, seed=11)
    fit = fit_malus(ds.values(), ds.counts())
    print(f"  injected {vis:.4f} -> recovered {fit.visibility:.4f} "
          f"+- {fit.sigma_visibility:.4f}")
print()

# datasets round-trip through CSV so scans can be archived and refit later
import tempfile, os
from loopmem import read_csv, write_csv

path = os.path.join(tempfile.mkdtemp(), "scan.csv")
write_csv(ds, path)
assert read_csv(path) == ds
print(f"dataset written and re-read losslessly: {path}")
