"""Isosurface geometry queries against a segmented image.

Implements the Section 3 machinery:

* *surface voxels* — foreground voxels with at least one 6-neighbor of a
  different label (image-boundary foreground voxels count: the outside
  is background);
* *closest isosurface point* — given a point ``p``, the EDT feature
  transform yields the nearest surface voxel ``q``; the segment ``p-q``
  (extended through ``q``) is marched in small intervals and the exact
  crossing is refined by bisection between the two differing labels
  (paper's interpolation step [57]);
* *surface centers* — the intersection of a Voronoi edge ``V(f)`` with
  the isosurface, computed by the same march/bisection along the edge.

When the C accelerator is available (:mod:`repro._accel`) the lookups,
marches and bisections run in C with the same double operations in the
same order, so every answer is bit-identical to the Python code below,
which stays the reference implementation (``REPRO_ACCEL=0``) and the
fallback for inputs the kernel declines (non-finite coordinates).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import _accel
from repro.imaging.edt import (
    EDTResult,
    euclidean_feature_transform,
    euclidean_feature_transform_parallel,
)
from repro.imaging.image import SegmentedImage

Point = Tuple[float, float, float]


def surface_voxel_mask(image: SegmentedImage) -> np.ndarray:
    """Boolean mask of surface voxels.

    A voxel is a surface voxel when it is foreground and at least one of
    its six face neighbors carries a different label; voxels on the image
    border compare against implicit background outside.
    """
    lab = image.labels
    fg = lab > 0
    differs = np.zeros(lab.shape, dtype=bool)
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        neq = lab[tuple(lo)] != lab[tuple(hi)]
        differs[tuple(lo)] |= neq
        differs[tuple(hi)] |= neq
        # Image border: outside is background.
        edge_lo = [slice(None)] * 3
        edge_lo[axis] = 0
        differs[tuple(edge_lo)] |= lab[tuple(edge_lo)] != 0
        edge_hi = [slice(None)] * 3
        edge_hi[axis] = lab.shape[axis] - 1
        differs[tuple(edge_hi)] |= lab[tuple(edge_hi)] != 0
    return fg & differs


class SurfaceOracle:
    """Answers closest-isosurface-point and surface-crossing queries.

    Builds the surface-voxel feature transform once (the paper's EDT
    pre-processing step) and then answers queries in roughly constant
    time per query.
    """

    def __init__(self, image: SegmentedImage, n_workers: int = 1):
        self.image = image
        self.surface_mask = surface_voxel_mask(image)
        if not self.surface_mask.any():
            raise ValueError("image has no surface voxels (empty foreground?)")
        if n_workers > 1:
            self.edt: EDTResult = euclidean_feature_transform_parallel(
                self.surface_mask, image.spacing, n_workers=n_workers
            )
        else:
            self.edt = euclidean_feature_transform(
                self.surface_mask, image.spacing
            )
        self._march_step = 0.25 * image.min_spacing
        self._kernel = _accel.oracle_kernel(
            image.labels, self.edt.feature, image.origin, image.spacing,
            self._march_step, 1e-3 * image.min_spacing,
            2.0 * max(image.spacing),
        )
        # Voxel centers as one tuple per surface voxel (flat index ->
        # center), built from shared per-axis coordinates: callers cache
        # a site per mesh element, and a fresh tuple each would cost
        # ~140 bytes per element.
        self._sites: Dict[int, Point] = {}
        self._axis_centers = tuple(
            [image.origin[a] + (i + 0.5) * image.spacing[a]
             for i in range(image.shape[a])]
            for a in range(3)
        )

    # ------------------------------------------------------------------
    def locate(self, p: Sequence[float]) -> Tuple[int, Point]:
        """``(label at p, nearest_surface_voxel(p))`` in one lookup."""
        k = self._kernel
        if k is not None:
            r = k.probe(k.image, p[0], p[1], p[2])
            if r.status == _accel.ISO_HIT:
                return r.label, self._site(r.site)
        flat = int(self.edt.feature[self.image.voxel_of(p)])
        return int(self.image.label_at(p)), self._site(flat)

    def nearest_surface_voxel(self, p: Sequence[float]) -> Point:
        """World center of the surface voxel nearest to ``p``."""
        return self.locate(p)[1]

    def _site(self, flat: int) -> Point:
        """Center of the voxel with C-order flat index ``flat``
        (:meth:`SegmentedImage.voxel_center`), shared per voxel."""
        site = self._sites.get(flat)
        if site is None:
            _, ny, nz = self.image.shape
            i, rem = divmod(flat, ny * nz)
            j, k = divmod(rem, nz)
            xs, ys, zs = self._axis_centers
            site = self._sites[flat] = (xs[i], ys[j], zs[k])
        return site

    def closest_surface_point(self, p: Sequence[float]) -> Optional[Point]:
        """A point on the isosurface close to ``p`` (Section 3's p-hat).

        Marches the ray from ``p`` through the nearest surface voxel and
        refines the first label crossing by bisection.  Returns ``None``
        when no crossing is found (degenerate query far outside the
        image).
        """
        k = self._kernel
        if k is not None:
            r = k.closest(k.image, p[0], p[1], p[2])
            if r.status != _accel.ISO_FALLBACK:
                return (r.x, r.y, r.z) if r.status == _accel.ISO_HIT else None
        q = self.nearest_surface_voxel(p)
        d = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
        length = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        overshoot = 2.0 * max(self.image.spacing)
        if length == 0.0:
            # p sits exactly on a surface voxel center: a label change
            # lies within one voxel in at least one axis direction (that
            # is what makes the voxel a surface voxel).
            sp = self.image.spacing
            for axis in range(3):
                for sign in (1.0, -1.0):
                    d = [0.0, 0.0, 0.0]
                    d[axis] = sign * sp[axis]
                    hit = self._march_segment(
                        p, tuple(d), sp[axis] + overshoot, sp[axis]
                    )
                    if hit is not None:
                        return hit
            return None
        # Extend past q: the actual label interface lies within one voxel
        # of the surface voxel center.
        return self._march_segment(
            p, d, length + overshoot, length
        )

    def surface_crossing(self, a: Sequence[float], b: Sequence[float]
                         ) -> Optional[Point]:
        """First isosurface crossing on segment ``a``-``b`` (or ``None``).

        This is the primitive behind surface centers: the Voronoi edge of
        a facet is the segment between the circumcenters of its two
        tetrahedra, and its intersection with the isosurface is the
        surface center ``c_surf(f)`` (rule R3).
        """
        k = self._kernel
        if k is not None:
            r = k.crossing(k.image, a[0], a[1], a[2], b[0], b[1], b[2])
            if r.status != _accel.ISO_FALLBACK:
                return (r.x, r.y, r.z) if r.status == _accel.ISO_HIT else None
        d = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        length = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if length == 0.0:
            return None
        return self._march_segment(a, d, length, length)

    # ------------------------------------------------------------------
    def _march_segment(self, a, d, march_length, d_length) -> Optional[Point]:
        """March from ``a`` along ``d`` (of length ``d_length``) up to
        ``march_length``, bisecting the first label change."""
        label_at = self.image.label_at
        step = self._march_step
        inv = 1.0 / d_length
        ux, uy, uz = d[0] * inv, d[1] * inv, d[2] * inv
        n_steps = max(1, int(math.ceil(march_length / step)))
        prev_t = 0.0
        prev_label = label_at(a)
        for k in range(1, n_steps + 1):
            t = min(k * step, march_length)
            pt = (a[0] + ux * t, a[1] + uy * t, a[2] + uz * t)
            lab = label_at(pt)
            if lab != prev_label:
                return self._bisect(a, (ux, uy, uz), prev_t, t, prev_label)
            prev_t = t
            prev_label = lab
        return None

    def _bisect(self, a, u, t_lo, t_hi, lab_lo) -> Point:
        """Bisection refinement of a label crossing to ~1e-3 voxel."""
        label_at = self.image.label_at
        tol = 1e-3 * self.image.min_spacing
        while t_hi - t_lo > tol:
            mid = 0.5 * (t_lo + t_hi)
            pt = (a[0] + u[0] * mid, a[1] + u[1] * mid, a[2] + u[2] * mid)
            if label_at(pt) == lab_lo:
                t_lo = mid
            else:
                t_hi = mid
        t = 0.5 * (t_lo + t_hi)
        return (a[0] + u[0] * t, a[1] + u[1] * t, a[2] + u[2] * t)
