"""Parity of the C surface-oracle kernels with the Python reference.

``SurfaceOracle`` answers ``closest_surface_point``, ``surface_crossing``
and ``nearest_surface_voxel`` (and ``locate``) through the C accelerator
when it is available.  The kernels must replay the Python march,
bisection and nearest-site lookup bit for bit, so every answer -- a
point or ``None`` -- must be identical to the one the Python oracle
gives for the same image.  The thread test checks that concurrent
callers (ctypes drops the GIL during the call) get the sequential
answers.
"""

import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _accel
from repro.imaging import (
    SegmentedImage,
    SurfaceOracle,
    knee_phantom,
    shell_phantom,
    two_spheres_phantom,
)

KERNELS = ("iso_probe", "iso_closest", "iso_crossing")

needs_kernel = pytest.mark.skipif(
    _accel.iso_closest is None, reason="C accelerator unavailable"
)


def _images():
    shell = shell_phantom(16)
    return {
        # anisotropic slices like the knee benchmark (z = 1.75)
        "knee": knee_phantom(24),
        # nested labels 2 | 1 | 0 on an off-origin, anisotropic grid
        "shell": SegmentedImage(shell.labels, spacing=(0.8, 1.1, 1.75),
                                origin=(-3.2, 5.0, 0.7)),
        # touching tissues: a 1 | 2 interface without background
        "two": two_spheres_phantom(16),
    }


@pytest.fixture(scope="module")
def oracles():
    """``name -> (C oracle, Python oracle)`` over the same image."""
    out = {}
    for name, img in _images().items():
        fast = SurfaceOracle(img)
        with pytest.MonkeyPatch.context() as mp:
            for handle in KERNELS:
                mp.setattr(_accel, handle, None)
            slow = SurfaceOracle(img)
        assert slow._kernel is None
        out[name] = (fast, slow)
    return out


def bits(answer):
    """Exact bit pattern of a point (or ``None``) for comparison."""
    if answer is None:
        return None
    return struct.pack("3d", *answer)


def box_point(img, fx, fy, fz):
    """World point at fractions of the image box; fractions outside
    ``[0, 1]`` land outside the image."""
    lo, hi = img.bounds()
    return tuple(lo[a] + f * (hi[a] - lo[a])
                 for a, f in enumerate((fx, fy, fz)))


def site_center(oracle, k):
    """Center of the ``k``-th surface voxel (the ``length == 0`` case)."""
    sites = np.argwhere(oracle.surface_mask)
    return oracle.image.voxel_center(sites[k % len(sites)].tolist())


image_names = st.sampled_from(["knee", "shell", "two"])
# 0 and 1 put a coordinate exactly on a face of the image box
fractions = st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(-0.6, 1.6, allow_nan=False))
points = st.tuples(fractions, fractions, fractions)


@needs_kernel
class TestKernelMatchesPython:
    @settings(max_examples=300, deadline=None)
    @given(name=image_names, f=points)
    def test_closest_surface_point(self, oracles, name, f):
        fast, slow = oracles[name]
        p = box_point(fast.image, *f)
        assert bits(fast.closest_surface_point(p)) == \
            bits(slow.closest_surface_point(p))

    @settings(max_examples=300, deadline=None)
    @given(name=image_names, fa=points, fb=points)
    def test_surface_crossing(self, oracles, name, fa, fb):
        fast, slow = oracles[name]
        a = box_point(fast.image, *fa)
        b = box_point(fast.image, *fb)
        assert bits(fast.surface_crossing(a, b)) == \
            bits(slow.surface_crossing(a, b))

    @settings(max_examples=300, deadline=None)
    @given(name=image_names, f=points)
    def test_nearest_surface_voxel_and_label(self, oracles, name, f):
        fast, slow = oracles[name]
        p = box_point(fast.image, *f)
        assert bits(fast.nearest_surface_voxel(p)) == \
            bits(slow.nearest_surface_voxel(p))
        lab, site = fast.locate(p)
        assert lab == slow.locate(p)[0] == fast.image.label_at(p)
        assert bits(site) == bits(slow.nearest_surface_voxel(p))

    @settings(max_examples=200, deadline=None)
    @given(name=image_names, k=st.integers(0, 10**6))
    def test_query_on_surface_voxel_center(self, oracles, name, k):
        # p equals its own nearest site: the axis-probe branch
        fast, slow = oracles[name]
        p = site_center(fast, k)
        assert fast.nearest_surface_voxel(p) == p
        assert bits(fast.closest_surface_point(p)) == \
            bits(slow.closest_surface_point(p))
        assert fast.surface_crossing(p, p) is None
        assert slow.surface_crossing(p, p) is None

    @settings(max_examples=200, deadline=None)
    @given(name=image_names, k=st.integers(0, 10**6), f=points)
    def test_crossing_from_surface_voxel_center(self, oracles, name, k, f):
        fast, slow = oracles[name]
        a = site_center(fast, k)
        b = box_point(fast.image, *f)
        assert bits(fast.surface_crossing(a, b)) == \
            bits(slow.surface_crossing(a, b))

    @pytest.mark.parametrize("p, q", [
        ((float("inf"), 3.0, 4.0), (1.0, 2.0, 3.0)),
        ((1.0, 2.0, 3.0), (2.0, float("-inf"), 3.0)),
        ((float("nan"), 3.0, 4.0), (1.0, 2.0, 3.0)),
    ])
    def test_non_finite_query_takes_the_python_path(self, oracles, p, q):
        # The kernels decline non-finite input, so the C oracle behaves
        # exactly like the Python one -- here, both raise.
        fast, slow = oracles["knee"]
        for call in ("closest_surface_point", "nearest_surface_voxel",
                     "surface_crossing"):
            args = (p, q) if call == "surface_crossing" else (p,)
            assert outcome(getattr(fast, call), *args) == \
                outcome(getattr(slow, call), *args)


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except (ValueError, OverflowError) as exc:
        return type(exc)


def test_threads_get_the_sequential_answers():
    img = knee_phantom(24)
    oracle = SurfaceOracle(img)
    rng = np.random.default_rng(7)
    queries = [tuple(box_point(img, *f)) for f in
               rng.uniform(-0.2, 1.2, size=(600, 3)).tolist()]
    pairs = list(zip(queries, queries[1:] + queries[:1]))

    def answer_all(order):
        out = {}
        for i in order:
            p, q = pairs[i]
            out[i] = (bits(oracle.closest_surface_point(p)),
                      bits(oracle.surface_crossing(p, q)),
                      oracle.locate(p))
        return out

    expected = answer_all(range(len(pairs)))
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def worker(w):
        order = list(range(len(pairs)))
        np.random.default_rng(w).shuffle(order)
        barrier.wait()
        results[w] = answer_all(order)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got == expected
