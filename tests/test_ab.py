"""scripts/ab.py: the bootstrap interval of its paired ratios and the pooled
frame percentile it prints beside them."""
import importlib.util
import random
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_ab():
    sys.path.insert(0, str(SCRIPTS))  # ab.py imports its sibling parity.py
    try:
        spec = importlib.util.spec_from_file_location("ab", SCRIPTS / "ab.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(SCRIPTS))
    return mod


ab = load_ab()


def test_scene_interval_at_least_as_wide_as_pair_interval():
    # 12 scenes x 4 rounds whose rounds agree: 12 independent values, which
    # resampling the 48 pairs one by one would count as 48
    for seed in range(5):
        values = random.Random(seed)
        scenes = [[values.gauss(1.0, 0.03)] * 4 for _ in range(12)]
        pairs = [[r] for scene in scenes for r in scene]
        low, high = ab.bootstrap_interval(scenes, random.Random(0))
        pair_low, pair_high = ab.bootstrap_interval(pairs, random.Random(0))
        assert high - low >= pair_high - pair_low


def test_frame_p95_pools_every_frame():
    # one long run of fast frames and one short run of slow ones: pooled,
    # the slow frames are 4% of the sample, so the p95 is a fast one; the
    # mean of the two runs' p95s would sit halfway to the slow ones
    fast = [0.010 + 0.001 * (k % 10) for k in range(96)]
    slow = [0.100] * 4
    p95 = ab.pooled_p95([fast, slow])
    assert p95 == ab.BENCH.percentile(fast + slow, 95)
    assert p95 == ab.pooled_p95([slow, [], fast[::-1]])  # order and empty runs do not count
    per_run = (ab.BENCH.percentile(fast, 95) + ab.BENCH.percentile(slow, 95)) / 2
    assert p95 <= max(fast) < per_run
