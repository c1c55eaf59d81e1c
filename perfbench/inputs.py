"""Seeded input generator.

Every workload draws its images from here, keyed by the workload seed.
A *variant* of a phantom relabels its tissues one-to-one.  The i-th
variant of a sequence maps the phantom's ``k`` tissues onto the values
``first + i*k .. first + i*k + k - 1``, in a seeded order, where
``first`` is itself seeded.  No value is used by two variants of one
sequence, so every voxel of tissue differs between any two variants:
no two share a content key, and no two share the crop of any block
that holds tissue, so neither the mesh cache nor the per-block cache
behind sharded meshing can serve one variant from another.  A "cold"
request is really cold.

Variants of one phantom have the same geometry, so every variant costs
the mesher the same work, and the same per-label voxel counts under the
relabelling.  Flips and transposes would also change the content key,
but they change the work by a few percent (and move a near-duplicate
edit across block boundaries), which shows up as run-to-run spread.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

import numpy as np

#: the first tissue value is drawn from ``1..FIRST_VALUES``, so even a
#: one-label phantom has seeded variants.
FIRST_VALUES = 8

Relabel = Tuple[int, ...]  # lut[old] = new; 0 (background) maps to 0


def relabellings(image, seed: int) -> Iterator[Relabel]:
    """One-to-one relabellings of ``image``'s tissues, in seeded order;
    no tissue value appears in two of them."""
    tissue = sorted(int(v) for v in np.unique(image.labels) if v != 0)
    rng = np.random.default_rng(seed)
    top = np.iinfo(image.labels.dtype).max
    first = 1 + int(rng.integers(FIRST_VALUES))
    for i in itertools.count():
        values = first + i * len(tissue) + rng.permutation(len(tissue))
        if values.max() > top:
            raise ValueError(f"more than {i} variants do not fit in "
                             f"{image.labels.dtype}")
        lut = list(range(int(image.labels.max()) + 1))
        for old, new in zip(tissue, values):
            lut[old] = int(new)
        yield tuple(lut)


def relabel(image, lut: Relabel):
    from repro.imaging.image import SegmentedImage

    labels = np.asarray(lut, dtype=image.labels.dtype)[image.labels]
    return SegmentedImage(labels, spacing=tuple(image.spacing),
                          origin=tuple(image.origin))


def variants(image, seed: int) -> Iterator:
    """Content-distinct variants of ``image``, in seeded order."""
    for lut in relabellings(image, seed):
        yield relabel(image, lut)


def zipf_sequence(n_keys: int, length: int, rng: np.random.Generator,
                  exponent: float = 1.1) -> np.ndarray:
    """``length`` popularity ranks (0 = most popular) drawn with
    P(rank k) ~ 1 / (k + 1)**exponent."""
    weights = 1.0 / np.arange(1, n_keys + 1) ** exponent
    return rng.choice(n_keys, size=length, p=weights / weights.sum())
