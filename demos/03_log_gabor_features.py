"""The 12-filter log-Gabor bank and the three feature methods.

Each filter is a frequency-domain mask: Gaussian on the log-radial axis
(so DC response is exactly zero) times a Gaussian in angle. Method
'single' flattens one filter's magnitude response, 'bank' averages all 12
responses first, and 'patches' splits the spectrogram into three frequency
bands and bank-averages each.
"""

import numpy as np

from sonoclass import (
    band_patch_feature,
    bank_average_feature,
    build_bank,
    peak_normalize,
    log_spectrogram,
    single_filter_feature,
    synthesize_clip,
    to_fixed,
)
from sonoclass.log_gabor import band_row_ranges

bank = build_bank((128, 128))
n_scales, n_orientations = bank.masks.shape[:2]
print(f"bank: {n_scales * n_orientations} filters "
      f"({n_scales} scales x {n_orientations} orientations)")
print(f"central frequencies: {[round(f, 4) for f in bank.params.f0_per_scale]} cycles/pixel")
for scale in (1, 2):
    mask = bank.mask(scale, 1)
    print(f"  scale {scale}: DC={mask[0, 0]}, peak={mask.max()}, "
          f"mean passband {mask.mean():.4f}")

fixed = to_fixed(log_spectrogram(peak_normalize(
    synthesize_clip("chirp", 1.0, 16000, 5)
)))

single = single_filter_feature(fixed, bank, scale=1, orientation=3)
bank_avg = bank_average_feature(fixed, bank)
patches = band_patch_feature(fixed, bank)
print(f"\nfeature lengths: single={single.size}, bank={bank_avg.size}, "
      f"patches={patches.size} (all 128*128)")
print(f"band row ranges: {band_row_ranges()}")

# orientation selectivity: a rising chirp is a diagonal texture, so
# responses differ across the six orientations at one scale
energies = [
    single_filter_feature(fixed, bank, 1, n).sum() for n in range(1, 7)
]
print("\nper-orientation response energy for a chirp (scale 1):")
for n, e in enumerate(energies, start=1):
    print(f"  orientation {n}: {e:10.1f}")
