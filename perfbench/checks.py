"""Output checks applied to every response, and the fidelity metric.

A response passes when its mesh is non-empty, every tet's radius-edge
ratio is below the request bound, every boundary triangle's smallest
planar angle meets the request bound, and, for each tissue label, the
boundary faces touching that label close up (every edge is used an even
number of times).  The closure test is per label on purpose: on a
multi-label mesh an edge where three tissues meet is legitimately used
three times by the global boundary, so a global watertightness test
flags correct meshes.

Cache-served and coalesced responses are checked by digest: they must
be byte-identical to the fresh response for the same request key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List

import numpy as np

MESH_FIELDS = ("vertices", "tets", "tet_labels", "boundary_faces",
               "boundary_labels")


def mesh_digest(mesh) -> str:
    """Digest of the mesh arrays' dtypes, shapes and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for name in MESH_FIELDS:
        arr = np.ascontiguousarray(getattr(mesh, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class Verdict:
    """Outcome of the checks on one mesh."""

    max_radius_edge: float = float("nan")
    min_planar_angle_deg: float = float("nan")
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def radius_edge_max(mesh) -> float:
    from repro.geometry.batch import radius_edge_many

    quads = mesh.vertices[mesh.tets]
    return float(radius_edge_many(quads).max())


def planar_angle_min_deg(mesh) -> float:
    """Smallest interior angle over all boundary triangles, in degrees."""
    tri = mesh.vertices[mesh.boundary_faces]          # (f, 3, 3)
    worst = np.inf
    for i in range(3):
        a = tri[:, (i + 1) % 3] - tri[:, i]
        b = tri[:, (i + 2) % 3] - tri[:, i]
        cos = (a * b).sum(axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        worst = min(worst,
                    float(np.degrees(np.arccos(np.clip(cos, -1, 1))).min()))
    return worst


def open_label_edges(mesh) -> int:
    """Edges used an odd number of times by some label's boundary."""
    faces = np.asarray(mesh.boundary_faces, dtype=np.int64)
    pairs = np.asarray(mesh.boundary_labels)
    open_edges = 0
    for label in np.unique(pairs):
        if label == 0:
            continue
        f = faces[(pairs[:, 0] == label) | (pairs[:, 1] == label)]
        edges = np.concatenate([f[:, (0, 1)], f[:, (1, 2)], f[:, (0, 2)]])
        edges.sort(axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        open_edges += int((counts % 2 == 1).sum())
    return open_edges


def check_mesh(mesh, radius_edge_bound: float,
               planar_angle_bound_deg: float) -> Verdict:
    v = Verdict()
    if mesh.n_tets == 0 or len(mesh.boundary_faces) == 0:
        v.problems.append("empty mesh")
        return v
    v.max_radius_edge = radius_edge_max(mesh)
    if not v.max_radius_edge < radius_edge_bound:
        v.problems.append(
            f"radius-edge {v.max_radius_edge:.4f} >= {radius_edge_bound}")
    v.min_planar_angle_deg = planar_angle_min_deg(mesh)
    if not v.min_planar_angle_deg >= planar_angle_bound_deg:
        v.problems.append(
            f"planar angle {v.min_planar_angle_deg:.4f} < "
            f"{planar_angle_bound_deg}")
    n_open = open_label_edges(mesh)
    if n_open:
        v.problems.append(f"{n_open} open per-label boundary edges")
    return v


def hausdorff_rel(mesh, image, delta: float) -> float:
    """Two-sided boundary-to-isosurface Hausdorff distance over delta."""
    from repro.metrics.fidelity import hausdorff_distance

    return hausdorff_distance(mesh, image) / delta
