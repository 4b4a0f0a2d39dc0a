"""Reconstruct the retrieved polarization state from projective counts.

The four-projector set (H, V, D, R) fixes all Stokes components. Linear
inversion is exact on noiseless data; on sampled data the likelihood fit
keeps the estimate physical and a Poisson bootstrap supplies the error bar.
Run with: python demos/state_tomography.py
"""
import math

import numpy as np

from loopmem import (
    ComponentSpec, FIBER_SEGMENT, FPC, MeasurementSet, MemoryConfig,
    R, RETROREFLECTOR, TomographyScan, TransmissionParams,
    counts_from_dataset, efficiency, linear_inversion, mle_reconstruct,
    reconstruct_with_uncertainty, run_scan,
)

mset = MeasurementSet()
params = TransmissionParams(0.541, 0.419, 0.50, 0.662)

print("noiseless counts for a circular input, ideal memory")
ds = run_scan(MemoryConfig(delta_tau=36.5), R, TomographyScan(), seed=None)
for label, counts in zip(ds.setting_labels, ds.record_counts):
    print(f"  {label}: {counts:.1f}")
k = counts_from_dataset(ds, mset)
rho, flux = linear_inversion(k, mset)
res = mle_reconstruct(k, mset, target=R)
print(f"  linear inversion flux {flux:.1f}, MLE fidelity {res.fidelity:.6f}")
print()

# a deliberately unphysical count vector: inversion leaves the Bloch ball,
# the likelihood fit does not
k_bad = np.array([30.0, 5.0, 28.0, 33.0])
rho_li, _ = linear_inversion(k_bad, mset)
res = mle_reconstruct(k_bad, mset)
print("low counts, eigenvalues of the two estimates:")
print(f"  inversion {np.linalg.eigvalsh(rho_li).round(4)}")
print(f"  MLE       {np.linalg.eigvalsh(res.rho.matrix).round(4)}")
print()

print("closed loop at realistic scale: inject a known fidelity, recover it")
eps = math.acos(math.sqrt(0.90))  # delay-line rotation giving F = 0.90
cfg = MemoryConfig.from_params(
    params, delta_tau=36.5,
    delay_zone=(ComponentSpec(FIBER_SEGMENT),
                ComponentSpec(RETROREFLECTOR),
                ComponentSpec(FPC, rotation_error=eps)))
rate = 1e4 / (efficiency(params, 1) * 60.0)
ds = run_scan(cfg, R, TomographyScan(), pair_rate=rate, acquisition_s=60.0, seed=42)
res = reconstruct_with_uncertainty(counts_from_dataset(ds, mset), mset, R,
                                   n_samples=2000, seed=0)
print(f"  injected F = 0.900, reconstructed F = {res.fidelity:.4f}")
print(f"  bootstrap: mean {res.mc_mean:.4f}, std {res.mc_std:.4f} "
      f"({res.n_samples} resamples, {res.n_failed} failed)")
print(f"  pull {(res.fidelity - 0.90) / res.mc_std:+.2f} sigma")
