"""The translation-invariant wavelet comparison features, step by step.

Undecimated Haar details (3 scales x 3 orientations) -> per-plane energy
normalization -> local-max pooling into C1 pyramids -> sliding scalar
products with randomly sampled patches -> one global max per patch (C2).
"""

import numpy as np

from sonoclass import (
    global_max,
    local_max,
    normalize_scale,
    patch_transform,
    peak_normalize,
    log_spectrogram,
    sample_patches,
    synthesize_clip,
    tiwt,
    to_fixed,
)
from sonoclass.wavelet_baseline import c1_pyramid

fixed = [
    to_fixed(log_spectrogram(peak_normalize(
        synthesize_clip(kind, 1.0, 16000, seed)
    )))
    for kind, seed in [("noise_burst", 1), ("impulse_train", 2), ("chirp", 3)]
]

planes = tiwt(fixed[0])
print("detail planes:", planes.shape, "(scales x orientations x H x W)")

s1 = normalize_scale(planes)
print(f"normalized coefficients: max {s1.max():.3e} "
      "(input scaling by c rescales these by exactly 1/c)")

c1 = local_max(s1)
print("C1 pyramid shapes:", [p.shape for p in c1])

# patches come from the training clips only; evaluation reuses them
train_c1 = [c1_pyramid(v) for v in fixed]
patch_set = sample_patches(train_c1, n_patches=12, sizes=(4, 8, 12), seed=9)
print(f"\nsampled {len(patch_set)} patches, sizes {[p.shape[0] for p in patch_set.patches]}")
print("first three sources (clip, scale, row, col):", patch_set.sources[:3])

# S2: one matrix product per (patch size, scale) scores every patch of that
# size at every offset; patch_transform keeps only each patch's peak
s2 = patch_transform(c1, patch_set)
indices, scale, peaks = s2[0]
print(f"\nS2: {len(s2)} (patch size, scale) products; the "
      f"size-{patch_set.patches[indices[0]].shape[0]} patches at scale {scale} "
      f"peak at {np.array2string(peaks, precision=3)}")

c2 = global_max(s2, len(patch_set))
print(f"\nC2 feature vector: length {c2.size}, range "
      f"[{c2.min():.3e}, {c2.max():.3e}]")
first = indices[0]
print(f"patch {first}'s C2 value, its peak over every scale: {c2[first]:.3e}")
print("these vectors go straight to the one-vs-one SVM (no MI step)")
