"""From waveform to the fixed 128x128 spectrogram every feature method eats.

The chain is: 256-point Hamming frames with hop 64 -> one-sided magnitudes
-> natural log with a 1e-10 floor -> bilinear resize -> min-max to [0, 1].
"""

import numpy as np

from sonoclass import log_spectrogram, peak_normalize, synthesize_clip, to_fixed
from sonoclass.spectrogram import StftParams

clip = peak_normalize(synthesize_clip("harmonic_tone", 1.0, 16000, 3))
params = StftParams()  # frame 256, hop 64 (192-sample overlap)

spec = log_spectrogram(clip, params)
print(f"log-spectrogram: {spec.shape[0]} bins x {spec.shape[1]} frames, "
      f"bin spacing {clip.sample_rate / params.frame_size:.1f} Hz")
print(f"value range [{spec.min():.2f}, {spec.max():.2f}] (natural log)")

fixed = to_fixed(spec)
print(f"\nfixed grid: {fixed.shape}, values in [{fixed.min():.2f}, {fixed.max():.2f}]")

# the harmonic stack shows up as a few bright rows; print the 5 brightest
row_energy = fixed.sum(axis=1)
top = np.argsort(row_energy)[-5:][::-1]
print("\nbrightest rows (frequency bins):", sorted(top.tolist()))
print("expected near f0, 2f0, 3f0 of the tone, scaled to the 128-row grid")
