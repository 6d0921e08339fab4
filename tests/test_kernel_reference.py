"""Each rewritten array kernel against a verbatim copy of the code it replaced.

The kernels gather by index, add in place, sort before a quantile and pack a
column at a time. Each must give the same bits as the reference kept here,
for any input. `point_ranges` is held to `np.linalg.norm(axis=1)` bit for
bit, so that a faster form of it must sum in the same order.

Fog, snow and motion blur read one draw per frame and corruption, shared by
the three severities. Their references are the mask-based forms of the
same arithmetic on that draw. The samplers that each output drew for itself
before are kept too: each severity's statistics must be theirs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from lidarcorrupt.corruptions import (
    CorruptedFrame,
    Provenance,
    apply_beam_missing,
    apply_cross_sensor,
    apply_crosstalk,
    apply_fog,
    apply_incomplete_echo,
    apply_motion_blur,
    apply_snow,
)
from lidarcorrupt.geometry import BeamPartition, lstsq_plane, partition_beams, point_ranges
from lidarcorrupt.rng import make_rng
from lidarcorrupt.scan_io import _pack, write_semkitti_labels
from lidarcorrupt.types import LabelArray, PointCloud

from conftest import FOG, PARAMS, SNOW, assert_same_bits, draw, scatter_normal

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
    normal = scatter_normal(pts)
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


def fog_reference(frame, alpha, beta_bs, draw, beta_0=50.0, response_distance=50.0,
                  scatter_fraction=(0.05, 0.5), fog_class=None):
    i64 = frame.cloud.intensity.astype(np.float64)
    r = frame.ranges
    i_hard = i64 * np.exp(-2.0 * alpha * r)
    response = np.clip(1.0 - r / response_distance, 0.0, 1.0)
    i_soft = i64 * (r * r / beta_0) * beta_bs * response
    scattered = i_soft > i_hard

    low, high = scatter_fraction
    fraction = low + (high - low) * draw

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
    """The particle sampler each snow output drew for itself before."""
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


def snow_reference(frame, r_s, draw, snow_class=None, particles_per_meter_per_rate=0.004,
                   extinction_per_rate=0.005, reflectivity=0.3, min_particle_range=1.0,
                   particle_distances=None):
    r = frame.ranges
    if particle_distances is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            particle_distances = min_particle_range + draw / (particles_per_meter_per_rate * r_s)
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


def motion_blur_reference(frame, sigma_t, draw):
    return (frame.cloud.xyz.astype(np.float64) + draw * sigma_t).astype(np.float32)


def beam_missing_reference(frame, partition, m, draw):
    return frame.select(~np.isin(partition.beam_of, draw[:m]))


def cross_sensor_reference(frame, partition, beams_kept, subsample_keep):
    stride = max(1, int(round(1.0 / subsample_keep)))
    kept_beams = np.floor(
        np.arange(beams_kept) * partition.beam_count / beams_kept
    ).astype(np.int64)
    keep = np.isin(partition.beam_of, kept_beams) & (partition.ranks % stride == 0)
    return frame.select(keep)


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


def assert_same_frame(out, ref):
    cloud, labels, provenance = ref
    assert_same_bits(out.cloud.xyz, cloud.xyz)
    assert_same_bits(out.cloud.intensity, cloud.intensity)
    assert_same_bits(out.labels, labels)
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
    u = draw("fog", len(frame.cloud), seed)
    out = apply_fog(frame, alpha, beta_bs, u, fog_class=fog_class, **FOG)
    assert_same_frame(out, fog_reference(frame, alpha, beta_bs, u, fog_class=fog_class,
                                         **FOG))


@settings(max_examples=150, deadline=None)
@given(frames(), st.floats(0.001, 200), seeds, st.sampled_from([None, 21]),
       st.booleans())
def test_snow_by_index(frame, r_s, seed, snow_class, forced):
    if len(frame.cloud) == 0:
        return
    exponentials = draw("snow", len(frame.cloud), seed)
    if forced:  # particles at the minimum range, none at all, and past the returns
        rng = np.random.default_rng(seed % 2**32)
        exponentials = rng.uniform(0, 80, len(exponentials))
        exponentials[rng.uniform(size=len(exponentials)) < 0.3] = np.inf
        exponentials[rng.uniform(size=len(exponentials)) < 0.05] = 0.0
    out = apply_snow(frame, r_s, exponentials, snow_class=snow_class, **SNOW)
    assert_same_frame(out, snow_reference(frame, r_s, exponentials, snow_class=snow_class,
                                          **SNOW))


@settings(max_examples=100, deadline=None)
@given(frames(), st.floats(1e-6, 10), seeds)
def test_motion_blur_in_place(frame, sigma_t, seed):
    if len(frame.cloud) == 0:
        return
    normals = draw("motion_blur", len(frame.cloud), seed)
    out = apply_motion_blur(frame, sigma_t, normals)
    assert_same_bits(out.cloud.xyz, motion_blur_reference(frame, sigma_t, normals))


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


# --- each severity's statistics against the samplers drawn per output before ---


def ray_frame(ranges):
    """A frame of one ray per range, along x, all of intensity 0.5."""
    n = len(ranges)
    xyz = np.zeros((n, 3), np.float32)
    xyz[:, 0] = ranges
    return CorruptedFrame(PointCloud(xyz, np.full(n, 0.5, np.float32)))


def snow_hits(frame, r_s, seed, shared):
    """Ranges of the rays snow cuts short: from the shared exponential draw,
    or from the sampler each output drew for itself before."""
    if shared:
        out = apply_snow(frame, r_s, draw("snow", len(frame.cloud), seed), **SNOW)
        xyz, provenance = out.cloud.xyz, out.provenance
    else:
        distances = sample_reference(frame.ranges, r_s, make_rng("snow", seed),
                                     SNOW["particles_per_meter_per_rate"],
                                     SNOW["min_particle_range"])
        cloud, _, provenance = snow_reference(frame, r_s, None, particle_distances=distances,
                                              **SNOW)
        xyz = cloud.xyz
    hit = provenance == Provenance.INJECTED_SNOW
    return np.linalg.norm(xyz[hit].astype(np.float64), axis=1), hit


@pytest.mark.parametrize("r_s", PARAMS["snow.snowfall_rate"])
@pytest.mark.parametrize("shared", [True, False])
def test_snow_hit_rate_is_the_poisson_closed_form(r_s, shared):
    # Rays of 60 m: a particle within the 59 m past the minimum range with
    # probability 1 - exp(-rate * span); within 5 binomial sigmas.
    n, r = 200_000, 60.0
    _, hit = snow_hits(ray_frame(np.full(n, r)), r_s, seed=17, shared=shared)
    p = 1 - np.exp(-SNOW["particles_per_meter_per_rate"] * r_s
                   * (r - SNOW["min_particle_range"]))
    assert abs(hit.mean() - p) < 5 * np.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("r_s", PARAMS["snow.snowfall_rate"])
def test_snow_hit_distances_match_the_old_sampler(r_s):
    frame = ray_frame(np.random.default_rng(5).uniform(0.5, 80, 100_000))
    shared, _ = snow_hits(frame, r_s, seed=23, shared=True)
    old, _ = snow_hits(frame, r_s, seed=29, shared=False)
    assert stats.ks_2samp(shared, old).pvalue > 0.01
    assert abs(len(shared) - len(old)) < 5 * np.sqrt(len(old))


@pytest.mark.parametrize("sigma_t", PARAMS["motion_blur.sigma_t"])
def test_motion_blur_axis_std_matches_the_old_sampler(sigma_t):
    n = 50_000
    frame = ray_frame(np.zeros(n))
    shared = apply_motion_blur(frame, sigma_t, draw("motion_blur", n, 31)).cloud.xyz
    old = make_rng("motion-blur", 37).normal(0.0, sigma_t, size=(n, 3))  # drawn per output
    for offsets in (shared.astype(np.float64), old):
        # the std of a normal sample's std is sigma / sqrt(2n)
        assert np.all(np.abs(offsets.std(axis=0) - sigma_t) < 5 * sigma_t / np.sqrt(2 * n))
        assert np.all(np.abs(offsets.mean(axis=0)) < 5 * sigma_t / np.sqrt(n))


def inclusion_frequency(pick, n, runs=3000):
    """How often each of `n` points is picked, over `runs` seeds."""
    counts = np.zeros(n)
    for seed in range(runs):
        counts[pick(seed)] += 1
    return counts / runs


@pytest.mark.parametrize("kind", ["crosstalk", "incomplete_echo"])
def test_each_point_picked_as_often_as_by_the_old_sampler(kind):
    n, share, runs = 40, 0.25, 3000
    frame = ray_frame(np.linspace(1, 40, n))
    vehicles = np.arange(n) < 30
    if kind == "crosstalk":
        k = int(np.rint(share * n))
        picked = lambda out: out.provenance == Provenance.JITTERED_CROSSTALK  # noqa: E731
        shared = lambda seed: picked(apply_crosstalk(  # noqa: E731
            frame, share, 1.0, draw(kind, n, seed)))
        old = lambda seed: make_rng(kind, seed).choice(n, size=k, replace=False)  # noqa: E731
        p = np.full(n, k / n)
    else:
        k = int(np.rint(share * 30))
        candidates = np.flatnonzero(vehicles)
        shared = lambda seed: ~np.isin(frame.cloud.xyz[:, 0], apply_incomplete_echo(  # noqa: E731
            frame, vehicles, share, draw(kind, 30, seed)).cloud.xyz[:, 0])
        old = lambda seed: make_rng(kind, seed).choice(  # noqa: E731
            candidates, size=k, replace=False)
        p = np.where(vehicles, k / 30, 0.0)
    tolerance = 5 * np.sqrt(p * (1 - p) / runs)
    for pick in (shared, old):
        assert np.all(np.abs(inclusion_frequency(pick, n, runs) - p) <= tolerance)


@settings(max_examples=150, deadline=None)
@given(frames(max_points=300), st.integers(1, 70), seeds, st.data())
def test_beam_masks_by_table(frame, beam_count, seed, data):
    # Ring-style beam ids below 0 and past beam_count, as a cloud built in
    # memory may hold: they are in no beam.
    rng = np.random.default_rng(seed)
    partition = BeamPartition(rng.integers(-3, beam_count + 3, len(frame.cloud)), beam_count)
    beams = rng.permutation(beam_count)
    m = data.draw(st.integers(0, beam_count))
    out = apply_beam_missing(frame, partition, m, beams)
    ref = beam_missing_reference(frame, partition, m, beams)
    assert_same_frame(out, (ref.cloud, ref.labels, ref.provenance))
    beams_kept = data.draw(st.integers(1, beam_count))
    subsample_keep = data.draw(st.sampled_from([1.0, 0.5, 0.3]))
    out = apply_cross_sensor(frame, partition, beams_kept, subsample_keep)
    ref = cross_sensor_reference(frame, partition, beams_kept, subsample_keep)
    assert_same_frame(out, (ref.cloud, ref.labels, ref.provenance))
