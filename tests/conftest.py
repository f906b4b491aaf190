import numpy as np
import pytest

from icmap.synth import NoiseConfig, SceneConfig, make_scene


def pytest_runtest_teardown(item):
    """Forget the falsifying examples hypothesis recorded on an xfail-marked
    test, which fails by design: its pytest plugin would otherwise turn them
    into a `.hypothesis/patches/` file (importing libcst to do so) at the
    teardown report. The test still runs, strict, with its data."""
    if item.get_closest_marker("xfail") is not None:
        item.__dict__.pop("_hypothesis_failing_examples", None)


def sine_curve(amp, wav, length, spacing):
    x = np.arange(0.0, length + 1e-9, spacing)
    return np.column_stack([x, amp * np.sin(2 * np.pi * x / wav)])


def sine_sweep_fixture(n_seeds=50, sigma=0.3, amp=2.0, wav=18.0, length=60.0, spacing=1.0):
    """Monte-Carlo merge fixture: two noisy overlapping windows of a sine,
    merged once per seed and scored against the analytic curve."""
    true = sine_curve(amp, wav, length, 0.25)
    cases = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
        obs = []
        for lo, hi in ((0.0, 33.0), (27.0, 60.0)):
            curve = sine_curve(amp, wav, length, spacing)
            w = curve[(curve[:, 0] >= lo) & (curve[:, 0] <= hi)]
            obs.append(w + rng.normal(0.0, sigma, w.shape))
        cases.append((true, obs))
    return {"divider": cases}


def zero_noise_config(curvature="straight", range_lw=(100.0, 50.0), seed=0):
    road = 100.0 if range_lw[0] >= 80 else 80.0
    radius = {"straight": 120.0, "arc": 120.0 if range_lw[0] >= 80 else 60.0, "s_curve": 80.0}
    return SceneConfig(
        road_length=road,
        curvature=curvature,
        radius=radius[curvature],
        crossing_count=1,
        frame_count=20,
        frame_spacing=3.0,
        range_lw=range_lw,
        noise=NoiseConfig.zero(),
        seed=seed,
    )


@pytest.fixture(scope="session")
def zero_noise_scene():
    return make_scene(zero_noise_config("arc", seed=1))
