"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, inputs, stats  # noqa: E402


# -- statistics helper -------------------------------------------------------

def test_median_and_counts():
    out = stats.summarize([3.0, 1.0, 2.0])
    assert out == {"n": 3, "p50": 2.0}


def test_no_samples():
    assert stats.summarize([]) == {"n": 0}


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile(99) is None          # p90 leaves 9
    assert stats.tail_percentile(100) == 90.0         # p90 leaves 10
    assert stats.tail_percentile(1000) == 99.0        # p99 leaves 10
    assert stats.tail_percentile(10000) == 99.9


def test_tail_value_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    out = stats.summarize(samples)
    assert out["tail_p"] == 90.0 and out["tail"] == 90.0
    assert stats.beyond(100, 90.0) == 10
    assert stats.value_at(samples[:99], 90.0) is None
    assert stats.value_at(samples, 90.0) == 90.0


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


# -- input generator ---------------------------------------------------------

def _counts(image):
    values, counts = np.unique(image.labels, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


@pytest.mark.parametrize("phantom", ["knee_phantom", "near_duplicate_phantom",
                                     "sphere_phantom"])
def test_variants_distinct_keys_same_label_counts(phantom):
    from repro import imaging
    from repro.service import image_content_key

    base = getattr(imaging, phantom)(16)
    base_counts = _counts(base)
    keys = set()
    luts = inputs.relabellings(base, seed=7)
    for lut, _ in zip(luts, range(6)):
        image = inputs.relabel(base, lut)
        keys.add(image_content_key(image))
        assert {lut[k]: v for k, v in base_counts.items()} == _counts(image)
        assert image.labels.shape == base.labels.shape
    assert len(keys) == 6


def test_variants_are_seeded():
    from repro.imaging import knee_phantom

    base = knee_phantom(12)

    def first(seed):
        return [lut for lut, _ in zip(inputs.relabellings(base, seed),
                                      range(5))]

    assert first(3) == first(3) and first(3) != first(4)


def test_relabellings_share_no_tissue_value():
    from repro.imaging import near_duplicate_phantom

    base = near_duplicate_phantom(12)
    luts = [lut for lut, _ in zip(inputs.relabellings(base, 1), range(50))]
    values = [v for lut in luts for v in lut[1:]]
    assert len(values) == len(set(values)) == 50 * 3
    assert 0 not in values and luts[0][0] == 0


def test_scan_variants_share_no_block():
    """Every block of an edit-stream scan is cold: no scan or edit of a
    run shares a block crop with another scan, while an edit shares all
    blocks but the inclusion's with its own scan."""
    from repro.delaunay.shard import block_content_key, decompose
    from repro.imaging import near_duplicate_phantom

    from perfbench.workloads import DELTA, EditStream

    n = EditStream.SCAN_N
    base = near_duplicate_phantom(n)
    edited = near_duplicate_phantom(n, inclusion_shift=EditStream.EDIT_SHIFT)
    plan = decompose(base, EditStream.SHARDS, delta=DELTA)

    def block_keys(image):
        return {block_content_key(image, b, delta=DELTA)
                for b in plan.blocks}

    seen = set()
    for lut, _ in zip(inputs.relabellings(base, 3), range(8)):
        scan = block_keys(inputs.relabel(base, lut))
        edit = block_keys(inputs.relabel(edited, lut))
        assert len(scan) == plan.n_blocks
        assert len(scan & edit) == plan.n_blocks - 1
        assert not (scan | edit) & seen
        seen |= scan | edit


def test_zipf_sequence_is_seeded_and_skewed():
    a = inputs.zipf_sequence(8, 2000, np.random.default_rng(1))
    b = inputs.zipf_sequence(8, 2000, np.random.default_rng(1))
    assert (a == b).all()
    counts = np.bincount(a, minlength=8)
    assert counts.max() > 4 * counts.min() > 0
    # rank 0 is the most popular: the popularity order is the caller's
    assert counts.argmax() == 0


# -- output checks -----------------------------------------------------------

def test_open_label_edges_counts_per_label():
    from repro.core.extract import ExtractedMesh

    # Two tetrahedra of labels 1 and 2 sharing face (0, 1, 2): each
    # label's boundary is a closed tetrahedron surface, though the
    # shared face's edges are used three times by the global boundary.
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, 0, -1]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3],
                      [0, 1, 4], [1, 2, 4], [0, 2, 4]])
    labels = np.array([[1, 2], [1, 0], [1, 0], [1, 0],
                       [2, 0], [2, 0], [2, 0]])
    mesh = ExtractedMesh(vertices=verts,
                         tets=np.array([[0, 1, 2, 3], [0, 1, 2, 4]]),
                         tet_labels=np.array([1, 2]),
                         boundary_faces=faces, boundary_labels=labels)
    assert checks.open_label_edges(mesh) == 0
    mesh.boundary_faces = faces[1:]
    mesh.boundary_labels = labels[1:]
    assert checks.open_label_edges(mesh) == 6


def test_digest_changes_with_content():
    from repro.api import MeshRequest, mesh
    from repro.imaging import sphere_phantom

    r = mesh(MeshRequest(image=sphere_phantom(10), delta=2.0))
    d = checks.mesh_digest(r.mesh)
    assert d == checks.mesh_digest(r.mesh)
    r.mesh.vertices[0, 0] += 1e-9
    assert d != checks.mesh_digest(r.mesh)
    assert checks.check_mesh(r.mesh, 2.0, 30.0).ok


# -- the traced run computes every per-layer metric BENCHMARK.json names ------

def test_layer_metrics_cover_benchmark_json():
    import json

    from perfbench import report, tracing
    from perfbench.workloads import WORKLOADS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    m = report.layer_metrics([], tracing.Recorder(), {}, 0, 0.0)
    assert list(m) == [x["name"] for x in doc["per_layer"]]


def test_end_to_end_covers_benchmark_json():
    import json

    from perfbench import report
    from perfbench.workloads import Sample

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    verdict = checks.Verdict(max_radius_edge=1.5, min_planar_angle_deg=31.0)
    s = Sample("r0", "cold", "fresh", 2.0, n_tets=100, verdict=verdict)
    e2e = report.end_to_end([s], 2.0, [1.0, 1.2, 1.1],
                            100.0, 1.3, verdict)
    assert {m["name"] for m in doc["end_to_end"]} <= set(e2e["values"])
    assert e2e["values"]["tets_per_s"] == 50.0
    assert e2e["counts"]["setup_s"] == 3
