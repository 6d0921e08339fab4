"""Each rewritten array kernel against a verbatim copy of the code it replaced.

The kernels gather by index, add in place, sort before a quantile and pack a
column at a time. Each must give the same bits as the reference kept here,
for any input. `point_ranges` is held to `np.linalg.norm(axis=1)` bit for
bit, so that a faster form of it must sum in the same order.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidarcorrupt import corruptions
from lidarcorrupt.corruptions import (
    CorruptedFrame,
    Provenance,
    apply_fog,
    apply_motion_blur,
    apply_snow,
    sample_particle_distances,
)
from lidarcorrupt.geometry import lstsq_plane, partition_beams, point_ranges
from lidarcorrupt.rng import make_rng
from lidarcorrupt.scan_io import _pack, write_semkitti_labels
from lidarcorrupt.types import LabelArray, PointCloud

from conftest import FOG, SNOW

# --- the replaced code, verbatim ----------------------------------------------


def point_ranges_reference(xyz):
    return np.linalg.norm(np.asarray(xyz, dtype=np.float64), axis=1)


def partition_reference(pc, beam_count):
    """`partition_beams` before it sorted: its own norm, unsorted quantile."""
    xyz = pc.xyz.astype(np.float64)
    ranges = np.linalg.norm(xyz, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_elev = np.where(ranges > 0, xyz[:, 2] / np.maximum(ranges, 1e-300), 0.0)
    elevation = np.arcsin(np.clip(sin_elev, -1.0, 1.0))

    quantiles = np.arange(1, beam_count) / beam_count
    boundaries = np.quantile(elevation, quantiles)
    bins = np.searchsorted(boundaries, elevation, side="right")
    return (beam_count - 1 - bins).astype(np.int64), elevation, quantiles


def pack_reference(pc, channels, scale=1.0):
    out = np.empty((len(pc), channels), dtype="<f4")
    out[:, :3] = pc.xyz
    np.multiply(pc.intensity, scale, out=out[:, 3])
    if channels == 5:
        out[:, 4] = pc.ring
    return out


def labels_reference(labels):
    words = labels.semantic.astype(np.uint32) | (
        labels.instance.astype(np.uint32) << np.uint32(16)
    )
    return words.astype("<u4").tobytes()


def lstsq_reference(xyz, mask):
    pts = xyz[mask].astype(np.float64, copy=False)
    if len(pts) < 3:
        return None
    centroid = pts.mean(axis=0)
    pts -= centroid
    normal = np.linalg.svd(pts, full_matrices=False)[2][-1]
    if normal[2] < 0:
        normal = -normal
    return normal, -float(normal @ centroid)


def with_fields_reference(frame, xyz=None, intensity=None, *, changed=None, tag=None,
                          class_id=None):
    """(cloud, labels, provenance) of the mask-based `with_fields`."""
    labels, provenance = frame.labels, frame.provenance
    if changed is not None and changed.any():
        provenance = provenance.copy()
        provenance[changed] = tag
        if labels is not None and class_id is not None:
            semantic = labels.semantic.copy()
            semantic[changed] = class_id
            labels = labels.with_semantic(semantic)
    return frame.cloud.with_fields(xyz, intensity), labels, provenance


def fog_reference(frame, alpha, beta_bs, seed, beta_0=50.0, response_distance=50.0,
                  scatter_fraction=(0.05, 0.5), fog_class=None):
    n = len(frame.cloud)
    i64 = frame.cloud.intensity.astype(np.float64)
    r = frame.ranges
    i_hard = i64 * np.exp(-2.0 * alpha * r)
    response = np.clip(1.0 - r / response_distance, 0.0, 1.0)
    i_soft = i64 * (r * r / beta_0) * beta_bs * response
    scattered = i_soft > i_hard

    rng = make_rng("fog", seed)
    fraction = rng.uniform(scatter_fraction[0], scatter_fraction[1], size=n)

    xyz = frame.cloud.xyz.copy()
    if scattered.any():
        xyz[scattered] = (
            frame.cloud.xyz[scattered].astype(np.float64)
            * fraction[scattered, None]
        ).astype(np.float32)
    out_i = np.where(scattered, np.clip(i_soft, 0.0, 1.0), i_hard).astype(np.float32)

    return with_fields_reference(frame, xyz, out_i, changed=scattered,
                                 tag=Provenance.INJECTED_FOG, class_id=fog_class)


def sample_reference(ranges, r_s, rng, particles_per_meter_per_rate=0.004,
                     min_particle_range=1.0):
    n = len(ranges)
    span = np.maximum(ranges - min_particle_range, 0.0)
    counts = rng.poisson(particles_per_meter_per_rate * r_s * span)
    u = rng.uniform(size=n)
    distances = np.full(n, np.inf)
    hit = counts > 0
    if hit.any():
        k = counts[hit].astype(np.float64)
        nearest = 1.0 - np.power(1.0 - u[hit], 1.0 / k)
        distances[hit] = min_particle_range + span[hit] * nearest
    return distances


def snow_reference(frame, r_s, seed, snow_class=None, particles_per_meter_per_rate=0.004,
                   extinction_per_rate=0.005, reflectivity=0.3, min_particle_range=1.0,
                   particle_distances=None):
    r = frame.ranges
    if particle_distances is None:
        rng = make_rng("snow", seed)
        particle_distances = sample_reference(
            r, r_s, rng, particles_per_meter_per_rate, min_particle_range
        )
    hit = particle_distances < r

    k = extinction_per_rate * r_s
    i64 = frame.cloud.intensity.astype(np.float64)
    xyz = frame.cloud.xyz.copy()
    intensity = (i64 * np.exp(-2.0 * k * r)).astype(np.float32)
    if hit.any():
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(r > 0, particle_distances / np.maximum(r, 1e-300), 0.0)
        xyz[hit] = (
            frame.cloud.xyz[hit].astype(np.float64) * scale[hit, None]
        ).astype(np.float32)
        hit_i = reflectivity * i64[hit] * np.exp(-2.0 * k * particle_distances[hit])
        intensity[hit] = np.clip(hit_i, 0.0, 1.0).astype(np.float32)

    return with_fields_reference(frame, xyz, intensity, changed=hit,
                                 tag=Provenance.INJECTED_SNOW, class_id=snow_class)


def motion_blur_reference(frame, sigma_t, seed):
    rng = make_rng("motion-blur", seed)
    offsets = rng.normal(0.0, sigma_t, size=(len(frame.cloud), 3))
    return (frame.cloud.xyz.astype(np.float64) + offsets).astype(np.float32)


# --- inputs -------------------------------------------------------------------

# Zeros of both signs, float32 subnormals, the smallest normal and magnitudes
# near the float32 limit.
SPECIALS = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.1754944e-38, -1e-38,
                     1e38, -1e38, 3.4028235e38, -3.4028235e38, 1.0], dtype=np.float32)


@st.composite
def float32_rows(draw, max_rows=4096):
    """(N, 3) float32 rows. Each row has one scale between 1e-45 and 1e37, so
    its squares are of like size and the order they are summed in shows; a
    few entries are replaced by SPECIALS."""
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, max_rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-45, 37, (n, 1))
    xyz = (rng.standard_normal((n, 3)) * scale).astype(np.float32)
    if n:
        flat = xyz.reshape(-1)
        for i, v in draw(st.lists(st.tuples(st.integers(0, 3 * n - 1),
                                            st.sampled_from(SPECIALS)), max_size=8)):
            flat[i] = v
    return xyz


@st.composite
def frames(draw, max_points=400):
    """A labelled frame of points within 60 m, intensities in [0, 1]; some
    points repeat and some sit at the origin."""
    n = draw(st.integers(0, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.uniform(-60, 60, (n, 3)).astype(np.float32)
    if n > 4:
        xyz[rng.integers(0, n, n // 4)] = xyz[0]
        xyz[rng.integers(0, n, 2)] = 0.0
    intensity = rng.uniform(0, 1, n).astype(np.float32)
    labels = LabelArray(rng.integers(0, 260, n), rng.integers(0, 65536, n))
    return CorruptedFrame(PointCloud(xyz, intensity, frame_id="ref"), labels)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_frame(out, ref):
    cloud, labels, provenance = ref
    assert_same_bits(out.cloud.xyz, cloud.xyz)
    assert_same_bits(out.cloud.intensity, cloud.intensity)
    assert out.labels.equals(labels)
    assert_same_bits(out.provenance, provenance)


seeds = st.integers(0, 2**63 - 1)

# --- the tests ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(float32_rows())
@example(np.zeros((0, 3), np.float32))
@example(SPECIALS[:12].reshape(4, 3))
def test_point_ranges_sums_as_norm_does(xyz):
    assert_same_bits(point_ranges(xyz), point_ranges_reference(xyz))


@settings(max_examples=150, deadline=None)
@given(float32_rows(max_rows=600), st.integers(1, 70), st.booleans())
def test_partition_on_sorted_elevation(xyz, beam_count, signed_zero_z):
    if signed_zero_z and len(xyz):
        xyz[::2, 2] = -0.0  # elevations -0.0 and 0.0 tie in the order
        xyz[1::3, 2] = 0.0
    pc = PointCloud(xyz, np.zeros(len(xyz), np.float32))
    if len(pc) == 0:  # returned before the quantile, then as now
        return
    beam_of, elevation, quantiles = partition_reference(pc, beam_count)
    assert_same_bits(partition_beams(pc, beam_count, point_ranges(xyz)).beam_of, beam_of)
    sorted_q = np.quantile(np.sort(elevation), quantiles)
    unsorted_q = np.quantile(elevation, quantiles)
    # Equal as values; only a zero boundary may differ in its sign, which
    # `searchsorted` does not see.
    assert np.array_equal(sorted_q, unsorted_q)
    assert_same_bits(sorted_q[sorted_q != 0], unsorted_q[unsorted_q != 0])


@settings(max_examples=100, deadline=None)
@given(float32_rows(max_rows=500), st.booleans(),
       st.sampled_from([1.0, 255.0, 0.5, 3.7, 1e-3]), st.integers(0, 2**32 - 1))
def test_pack_per_column(xyz, with_ring, scale, seed):
    rng = np.random.default_rng(seed)
    pc = PointCloud(xyz, rng.uniform(0, 1, len(xyz)).astype(np.float32),
                    ring=rng.integers(0, 64, len(xyz)) if with_ring else None)
    channels = 5 if with_ring else 4
    assert_same_bits(_pack(pc, channels, scale), pack_reference(pc, channels, scale))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 2**32 - 1))
def test_labels_in_one_pass(n, seed):
    rng = np.random.default_rng(seed)
    labels = LabelArray(rng.integers(0, 65536, n), rng.integers(0, 65536, n))
    assert write_semkitti_labels(labels) == labels_reference(labels)


@settings(max_examples=100, deadline=None)
@given(float32_rows(max_rows=500), st.floats(0, 1), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_lstsq_gathers_same_rows(xyz, share, as_float64, seed):
    xyz = np.clip(xyz, -1e6, 1e6)  # keep the SVD finite
    if as_float64:
        xyz = xyz.astype(np.float64)
    mask = np.random.default_rng(seed).uniform(size=len(xyz)) < share
    got, ref = lstsq_plane(xyz, mask), lstsq_reference(xyz, mask)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert_same_bits(got[0], ref[0])
        assert_same_bits(got[1], ref[1])


@settings(max_examples=150, deadline=None)
@given(frames(), st.floats(0, 0.1), st.floats(0, 0.2), seeds,
       st.sampled_from([None, 20]))
def test_fog_by_index(frame, alpha, beta_bs, seed, fog_class):
    if len(frame.cloud) == 0:
        return
    out = apply_fog(frame, alpha, beta_bs, seed, fog_class=fog_class, **FOG)
    assert_same_frame(out, fog_reference(frame, alpha, beta_bs, seed, fog_class=fog_class,
                                         **FOG))


@settings(max_examples=150, deadline=None)
@given(frames(), st.floats(0.001, 200), seeds, st.floats(0, 5))
def test_particle_sampler_by_index(frame, r_s, seed, min_range):
    r = frame.ranges
    got = sample_particle_distances(r, r_s, make_rng("snow", seed), 0.004, min_range)
    ref = sample_reference(r, r_s, make_rng("snow", seed), 0.004, min_range)
    assert_same_bits(got, ref)


@settings(max_examples=150, deadline=None)
@given(frames(), st.floats(0.001, 200), seeds, st.sampled_from([None, 21]),
       st.booleans())
def test_snow_by_index(frame, r_s, seed, snow_class, override):
    if len(frame.cloud) == 0:
        return
    distances, sampler = None, corruptions.sample_particle_distances
    if override:  # a field with zeros, infs and distances past the returns
        rng = np.random.default_rng(seed % 2**32)
        distances = rng.uniform(0, 80, len(frame.cloud))
        distances[rng.uniform(size=len(distances)) < 0.3] = np.inf
        distances[rng.uniform(size=len(distances)) < 0.05] = 0.0
        sampler = lambda *args: distances  # noqa: E731
    with mock.patch.object(corruptions, "sample_particle_distances", sampler):
        out = apply_snow(frame, r_s, seed, snow_class=snow_class, **SNOW)
    assert_same_frame(out, snow_reference(frame, r_s, seed, snow_class=snow_class,
                                          particle_distances=distances, **SNOW))


@settings(max_examples=100, deadline=None)
@given(frames(), st.floats(1e-6, 10), seeds)
def test_motion_blur_in_place(frame, sigma_t, seed):
    if len(frame.cloud) == 0:
        return
    out = apply_motion_blur(frame, sigma_t, seed)
    assert_same_bits(out.cloud.xyz, motion_blur_reference(frame, sigma_t, seed))


@settings(max_examples=100, deadline=None)
@given(frames(max_points=50), st.integers(0, 2**32 - 1), st.sampled_from(list(Provenance)),
       st.sampled_from([None, 0, 7]))
def test_with_fields_by_index(frame, seed, tag, class_id):
    n = len(frame.cloud)
    mask = np.random.default_rng(seed).uniform(size=n) < 0.3
    ref = with_fields_reference(frame, changed=mask, tag=tag, class_id=class_id)
    for changed in (mask, np.flatnonzero(mask)):
        out = frame.with_fields(changed=changed, tag=tag, class_id=class_id)
        assert_same_frame(out, ref)
