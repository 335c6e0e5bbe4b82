"""Reference copy of S2/C2 in its einsum-and-dicts form.

`sonoclass.wavelet_baseline.patch_transform` scores every patch of one
size against one C1 scale with a single matrix product, the one
`np.tensordot` makes, and `global_max` takes its maxima straight off
those arrays. This copy keeps the earlier form:
one `np.einsum(..., optimize=True)` per size and scale, each patch's score
maps kept in a dict by scale, and a Python max per patch. Tests require
that both give the same C2 vectors, bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sonoclass.wavelet_baseline import SCALES


def patch_transform(c1, patch_set):
    """Per patch, a dict mapping the scale j to its 2D array of scores."""
    out = [dict() for _ in patch_set.patches]
    by_size = {}
    for i, patch in enumerate(patch_set.patches):
        by_size.setdefault(patch.shape[0], []).append(i)

    for m, indices in by_size.items():
        stack = np.stack([patch_set.patches[i] for i in indices])  # (P, M, M, 3)
        for scale_idx, scale in enumerate(SCALES):
            planes = c1[scale_idx]
            if planes.shape[1] < m or planes.shape[2] < m:
                continue
            windows = sliding_window_view(planes, (m, m), axis=(1, 2))
            scores = np.einsum("kuvmn,pmnk->puv", windows, stack, optimize=True)
            for row, i in enumerate(indices):
                out[i][scale] = scores[row]
    return out


def global_max(s2):
    """One scalar per patch: max over every scale and offset."""
    values = np.empty(len(s2))
    for i, per_scale in enumerate(s2):
        values[i] = max(float(arr.max()) for arr in per_scale.values())
    return values
