"""The profile-space contract: a profile that `profiles.RULES` accepts writes
every output of a well-formed frame.

Profiles are drawn from the table itself: any value of any `params` key that
its rule accepts, not only the built-in tables. Each runs `run_corrupt` on
one labelled `semantickitti` frame and one unlabelled `kitti` frame with
boxes. The only failures allowed are the data-dependent ones the README
names (wet ground's `NoPlaneError`, incomplete echo with neither labels nor
boxes), which these frames do not meet, and no numpy warning may be raised.
Each fault this found is pinned below as a plain test.
"""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcorrupt import LabelArray, ProfileError, corruptions
from lidarcorrupt.cli import RunConfig, run_corrupt
from lidarcorrupt.corruptions import CorruptedFrame, FrameContext, apply
from lidarcorrupt.profiles import (_AXIS, _PAIR, _TRIPLE, KINDS, RULES, CorruptionKind,
                                   Severity, load_profile)
from lidarcorrupt.types import PointCloud

from conftest import make_beam_cloud, write_dataset

PARAM_KEYS = list(load_profile("kitti").params)
BEAMS = 64


def numbers(rule):
    """Numbers that `rule`'s own test accepts. Whole numbers stop at twice
    the beam count, which covers both beam rules; past it they only make
    RANSAC's iteration loop longer."""
    if rule.whole:
        drawn = st.integers(0, 2 * BEAMS)
    else:
        drawn = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 1e37, 1.7976931348623157e308]),
                          st.floats(0, 1), st.floats(min_value=0, allow_infinity=False))
    return drawn.filter(lambda v: rule.test(v, BEAMS))


def values(key):
    """Values of `key` in its rule's shape: a pair low <= high, a triple, a
    nonempty axis, or one number."""
    rule = RULES[key]
    size = {_PAIR: (2, 2), _TRIPLE: (3, 3), _AXIS: (1, 4)}.get(rule.shape)
    if size is None:
        return numbers(rule)
    drawn = st.lists(numbers(rule), min_size=size[0], max_size=size[1])
    return drawn.map(sorted) if rule.shape == _PAIR else drawn


profiles = st.fixed_dictionaries({}, optional={key: values(key) for key in PARAM_KEYS})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The two one-frame datasets (384 points each), each with a return at
    the sensor's origin, as real scans hold."""
    root = tmp_path_factory.mktemp("profile-space")
    roots = {name: write_dataset(root / name, name, 1) for name in ("semantickitti", "kitti")}
    for path in root.glob("*/velodyne/*.bin"):
        scan = np.fromfile(path, "<f4").reshape(-1, 4)
        scan[0, :3] = 0.0
        scan.tofile(path)
    return roots


def run_all(inputs, out, overrides):
    """(failures, warnings) of `run_corrupt` over both inputs under `overrides`."""
    failures = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, root in inputs.items():
            cfg = RunConfig(name, root, out / name, overrides=overrides)
            failures += run_corrupt(cfg)["failures"]  # an output not written is a failure
    return failures, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=30, deadline=None)
@given(overrides=profiles)
def test_accepted_profile_writes_every_output(inputs, tmp_path_factory, overrides):
    for name in inputs:  # every drawn value passes its rule
        load_profile(name).with_overrides(overrides)
    failures, caught = run_all(inputs, tmp_path_factory.mktemp("out"), overrides)
    assert failures == [] and caught == []


# Each fault the contract found, pinned: a profile value its rule accepts
# that can make an output non-finite, fail it, or raise a numpy warning.
def origin_frame():
    """A labelled 384-point frame whose first point is at the sensor."""
    cloud, _ = make_beam_cloud(64, 6, seed=3, with_ring=False)
    xyz = cloud.xyz.copy()
    xyz[0] = 0.0
    semantic = np.random.default_rng(4).choice([10, 40, 44, 48, 70], size=len(xyz))
    return CorruptedFrame(PointCloud(xyz, cloud.intensity),
                          LabelArray(semantic.astype(np.uint16), np.zeros(len(xyz), np.uint16)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind,overrides", [
    # -2 * alpha is -inf, and -inf times the origin's range of 0 is NaN
    ("fog", {"fog.alpha_axis": [1.7976931348623157e308]}),
    ("fog", {"fog_beta_0": 5e-324}),  # range^2 / beta_0 overflows
    ("fog", {"fog.beta_bs": [1e308, 1e308, 1e308]}),
    ("fog", {"fog_response_distance": 5e-324}),
    ("wet_ground", {"wet_kappa_per_mm": 1e308}),
    # extinction * rate * 2 is -inf, and times the origin's range of 0 NaN
    ("snow", {"snow_extinction_per_rate": 1.25e308}),
    # extinction * rate * range overflows
    ("snow", {"snow_extinction_per_rate": 1.0, "snow.snowfall_rate": [1e307] * 3}),
    # a rate of -0.0 puts every particle at -inf, cutting every ray short there
    ("snow", {"snow_particles_per_meter_per_rate": -0.0}),
    ("cross_sensor", {"subsample_keep": 1e-300}),  # a stride past int64
    ("cross_sensor", {"subsample_keep": 5e-324}),  # 1 / subsample_keep is inf
])
def test_extreme_accepted_value_gives_finite_output(kind, overrides):
    profile = load_profile("semantickitti").with_overrides(overrides)
    ctx = FrameContext(origin_frame(), profile, 0)
    for severity in Severity:
        out = apply(CorruptionKind(kind), ctx, severity)
        assert np.isfinite(out.cloud.xyz).all() and np.isfinite(out.cloud.intensity).all()


def test_tiny_subsample_keep_keeps_each_beams_first_point():
    profile = load_profile("semantickitti").with_overrides({"subsample_keep": 5e-324})
    ctx = FrameContext(origin_frame(), profile, 0)
    kept = profile.value_at("cross_sensor.beams_kept", Severity.HEAVY)
    assert len(apply(CorruptionKind.CROSS_SENSOR, ctx, Severity.HEAVY).cloud) == kept


@pytest.mark.parametrize("call,message", [
    (lambda f: corruptions.apply_motion_blur(f, 1e39, np.zeros((len(f.cloud), 3))),
     "sigma_t must be in [0, 1e37], got 1e+39"),
    (lambda f: corruptions.apply_crosstalk(f, 0.5, 1e39, (np.arange(len(f.cloud)),
                                                          np.zeros((len(f.cloud), 4)))),
     "sigma_c must be in [0, 1e37], got 1e+39"),
])
def test_operator_refuses_jitter_past_float32(call, message):
    with pytest.raises(ValueError) as info:
        call(origin_frame())
    assert str(info.value) == message


# Candidate numbers for every rule: each side of every bound in the table.
CANDIDATES = [-1.0, -0.0, 0, 0.0, 5e-324, 0.5, 1, 1.0, 1.5, 2.0, 16, 64, 64.0, 65, 1e37, 1e38,
              float("nan"), float("inf"), True, "1", None, np.int64(16), np.float32(0.5)]
OPERATOR_KEYS = [(kind, name) for kind in CorruptionKind for name in KINDS[kind]]


def operator_verdict(kind, name, value):
    """None if `kind`'s operator takes `value` for keyword `name` (the other
    arguments as `apply` passes them at moderate severity), else its error."""
    profile = load_profile("semantickitti").with_overrides({"crosstalk.fraction": [1, 1, 1]})
    ctx = FrameContext(origin_frame(), profile, 0)
    operator = getattr(corruptions, f"apply_{kind}")
    kwargs = {}
    for param in list(inspect.signature(operator).parameters)[1:]:
        if param in KINDS[kind]:
            kwargs[param] = profile.value_at(KINDS[kind][param], Severity.MODERATE)
            if RULES[KINDS[kind][param]].shape == _AXIS:
                kwargs[param] = kwargs[param][0]
        else:
            kwargs[param] = ctx.draw(kind) if param == "draw" else getattr(
                profile if param.endswith("_class") else ctx, param)
    kwargs[name] = value
    try:
        operator(ctx, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind,name", OPERATOR_KEYS,
                         ids=[f"{kind}-{name}" for kind, name in OPERATOR_KEYS])
def test_operator_and_profile_agree(kind, name):
    # A value the profile refuses, the operator refuses by its keyword's
    # name; one the profile takes, the operator takes: a triple's entry, an
    # axis's value, or a pair as a whole.
    key = KINDS[kind][name]
    shape = RULES[key].shape
    for value in CANDIDATES:
        given = [value] * 3 if shape == _TRIPLE else [value] if shape == _AXIS else value
        if shape == _PAIR:
            given = value = [0.0, value]
        try:
            load_profile("semantickitti").with_overrides({key: given})
            profile_takes = True
        except ProfileError:
            profile_takes = False
        error = operator_verdict(kind, name, value)
        assert (error is None) == profile_takes, (key, value, error)
        assert error is None or error.startswith(f"{name} must be "), error
