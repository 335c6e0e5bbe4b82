"""Translation-invariant wavelet comparison features.

Pipeline: undecimated Haar detail coefficients for 3 dyadic scales x
3 orientations -> per-plane energy normalization -> local-max pooling on
2^j cells (C1) -> sliding scalar products against randomly sampled patches
(S2) -> one global max per patch (C2). C2 vectors go straight to the SVM.

S2 is `patch_transform` alone: one matrix product per (patch size,
scale), so every patch of a size is scored in one BLAS call, with the
products taken in order on the calling thread in one work array. It keeps
only each patch's peak per scale, so a clip's score maps are never all
held at once, and C2 takes its maxima straight off the peaks. A clip is
the unit of parallel work (`pipeline.extract_features`); nothing here
starts a thread.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SonoclassError

SCALES = (1, 2, 3)
ORIENTATIONS = ("horizontal", "vertical", "diagonal")
DEFAULT_PATCH_SIZES = (4, 8, 12)

# Haar analysis pair, mean/half-difference normalization.
_HAAR_LO = (0.5, 0.5)
_HAAR_HI = (0.5, -0.5)


@dataclass(frozen=True)
class PatchSet:
    """Patches sampled from training C1 pyramids, each (M, M, 3).

    sources records (clip_index, scale, row, col) of every extraction so a
    persisted set is reproducible and auditable.
    """

    patches: tuple[np.ndarray, ...]
    sources: tuple[tuple[int, int, int, int], ...]

    def __len__(self) -> int:
        return len(self.patches)

    @cached_property
    def stacks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per patch size, in order of first appearance: the indices of its
        patches and their (P, M, M, 3) stack."""
        by_size: dict[int, list[int]] = {}
        for i, patch in enumerate(self.patches):
            by_size.setdefault(patch.shape[0], []).append(i)
        return tuple(
            (np.array(indices), np.stack([self.patches[i] for i in indices]))
            for indices in by_size.values()
        )

    @cached_property
    def digest(self) -> str:
        """SHA-256 of every patch's shape and bytes, in order: equal for a
        sampled set and the same set read back from a model file."""
        h = hashlib.sha256()
        for patch in self.patches:
            h.update(repr(patch.shape).encode())
            h.update(patch.tobytes())
        return h.hexdigest()


def tiwt(values: np.ndarray) -> np.ndarray:
    """Stationary 2D Haar details with periodic extension.

    Returns read-only planes of shape (len(SCALES), 3, N1, N2); the plane
    for 1-based scale j and orientation k is [j - 1, k - 1]. Level j uses
    taps spaced 2^(j-1) samples apart on the previous approximation, so
    every plane keeps the input resolution.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise SonoclassError("input must be a 2D array")
    n1, n2 = values.shape
    step = 2 ** len(SCALES)
    if n1 % step or n2 % step:
        raise SonoclassError(f"dimensions must be divisible by {step}, got {values.shape}")

    planes = np.empty((len(SCALES), len(ORIENTATIONS), n1, n2))
    approx = values
    for idx, scale in enumerate(SCALES):
        s = 2 ** (scale - 1)
        lo_r = _HAAR_LO[0] * approx + _HAAR_LO[1] * np.roll(approx, -s, axis=0)
        hi_r = _HAAR_HI[0] * approx + _HAAR_HI[1] * np.roll(approx, -s, axis=0)
        planes[idx, 0] = _HAAR_LO[0] * hi_r + _HAAR_LO[1] * np.roll(hi_r, -s, axis=1)
        planes[idx, 1] = _HAAR_HI[0] * lo_r + _HAAR_HI[1] * np.roll(lo_r, -s, axis=1)
        planes[idx, 2] = _HAAR_HI[0] * hi_r + _HAAR_HI[1] * np.roll(hi_r, -s, axis=1)
        approx = _HAAR_LO[0] * lo_r + _HAAR_LO[1] * np.roll(lo_r, -s, axis=1)
    planes.setflags(write=False)
    return planes


def normalize_scale(planes: np.ndarray) -> np.ndarray:
    """Divide |detail| by the plane's total squared energy, per (scale, orientation).

    Scaling the input by c > 0 scales the result by 1/c. A plane holding
    nothing but rounding dust (its largest coefficient is negligible next
    to the largest coefficient anywhere in the tensor) is treated as
    all-zero instead of being amplified by the division; the threshold is
    relative, so this guard is itself scale-invariant.
    """
    mags = np.abs(planes)
    plane_max = mags.max(axis=(2, 3), keepdims=True)
    dead = plane_max <= 1e-12 * mags.max()
    energy = np.sum(planes ** 2, axis=(2, 3), keepdims=True)
    safe = np.where(energy > 0.0, energy, 1.0)
    return np.where(dead | (energy == 0.0), 0.0, mags / safe)


def local_max(normalized: np.ndarray) -> list[np.ndarray]:
    """Max-pool each scale's planes over non-overlapping 2^j x 2^j cells.

    Returns one (3, N1/2^j, N2/2^j) array per scale. A cell's max is taken
    by halving the planes j times, pairwise rows then pairwise columns;
    max is exact, so this equals the max over each reshaped cell.
    """
    n1, n2 = normalized.shape[2], normalized.shape[3]
    pooled = []
    for idx, scale in enumerate(SCALES):
        cell = 2 ** scale
        if n1 % cell or n2 % cell:
            raise SonoclassError(f"plane {n1}x{n2} not divisible by cell {cell}")
        planes = normalized[idx]
        for _ in range(scale):
            planes = np.maximum(planes[:, 0::2], planes[:, 1::2])
            planes = np.maximum(planes[:, :, 0::2], planes[:, :, 1::2])
        pooled.append(planes)
    return pooled


def c1_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """tiwt -> normalize_scale -> local_max for one spectrogram."""
    return local_max(normalize_scale(tiwt(values)))


def sample_patches(
    training_c1: list[list[np.ndarray]],
    n_patches: int,
    sizes: tuple[int, ...] = DEFAULT_PATCH_SIZES,
    seed: int = 0,
) -> PatchSet:
    """Extract n_patches random (M, M, 3) windows from training C1 pyramids.

    Sizes are cycled through `sizes`; the source clip, scale, and position
    are drawn uniformly (scale restricted to planes large enough for the
    patch). Deterministic for a fixed seed.
    """
    if n_patches < 1 or not training_c1:
        raise SonoclassError("need at least one patch and one training pyramid")
    rng = np.random.default_rng(seed)
    patches = []
    sources = []
    for i in range(n_patches):
        m = sizes[i % len(sizes)]
        clip_idx = int(rng.integers(len(training_c1)))
        pyramid = training_c1[clip_idx]
        fitting = [
            j for j, planes in enumerate(pyramid)
            if planes.shape[1] >= m and planes.shape[2] >= m
        ]
        if not fitting:
            raise SonoclassError(f"patch size {m} fits no C1 plane")
        scale_idx = fitting[int(rng.integers(len(fitting)))]
        planes = pyramid[scale_idx]
        u = int(rng.integers(planes.shape[1] - m + 1))
        v = int(rng.integers(planes.shape[2] - m + 1))
        patch = np.moveaxis(planes[:, u:u + m, v:v + m], 0, -1).copy()
        patch.setflags(write=False)
        patches.append(patch)
        sources.append((clip_idx, SCALES[scale_idx], u, v))
    return PatchSet(patches=tuple(patches), sources=tuple(sources))


def patch_transform(
    c1: list[np.ndarray], patch_set: PatchSet
) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """Sliding scalar product of every patch against every C1 scale it
    fits, reduced to each patch's peak over offsets.

    Result: one (indices, scale, peaks) entry per (patch size, scale)
    whose planes can host the size, by patch size in order of first
    appearance, then by scale. Each entry's scores are one matrix product
    of its (P, M, M, 3) stack against the (3, U, V, M, M) sliding windows
    of that scale's C1 planes: [r, u, v] is patch indices[r]'s
    correlation, summed over the 3 orientations, at offset (u, v); peaks[r]
    is the largest over (u, v).

    The entries share one work array sized to the largest: the operand at
    its head, the scores after. The windows go into the operand as a
    C-contiguous (M, M, 3, U, V) array, the operand
    np.tensordot(stack, windows, axes=((1, 2, 3), (3, 4, 0))) builds: that
    is the contraction order einsum's optimizer picks, other orders differ
    in the last bit, and the one gemm below on operands of that shape and
    layout is the call tensordot makes.
    """
    entries = [(indices, stack, scale, sliding_window_view(planes, stack.shape[1:3], axis=(1, 2)))
               for indices, stack in patch_set.stacks
               for scale, planes in zip(SCALES, c1) if min(planes.shape[1:]) >= stack.shape[1]]
    work = np.empty(max((w.size + len(i) * w.shape[1] * w.shape[2] for i, _, _, w in entries),
                        default=0))
    result = []
    for indices, stack, scale, windows in entries:
        p, (_, u, v, m, _) = len(indices), windows.shape
        operand = work[:windows.size].reshape(m, m, 3, u, v)
        np.copyto(operand, windows.transpose(3, 4, 0, 1, 2))
        scores = work[windows.size:windows.size + p * u * v].reshape(p, u * v)
        np.dot(stack.reshape(p, -1), operand.reshape(-1, u * v), out=scores)
        result.append((indices, scale, scores.max(axis=1)))
    return result


def global_max(s2: list[tuple[np.ndarray, int, np.ndarray]], n_patches: int) -> np.ndarray:
    """One scalar per patch, in patch order: the max over every entry's
    scores, which are patch_transform's peaks or whole score maps."""
    if not s2:
        raise SonoclassError("no patch scores")
    values = np.full(n_patches, -np.inf)
    placed = np.zeros(n_patches, dtype=bool)
    for indices, _, scores in s2:
        values[indices] = np.maximum(values[indices], scores.reshape(len(indices), -1).max(axis=1))
        placed[indices] = True
    if not placed.all():
        raise SonoclassError(f"patch {int(np.argmin(placed))} has no valid placements")
    return values
