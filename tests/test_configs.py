"""Every float field of the config dataclasses rejects NaN and ±inf when
the dataclass is built, with a ValueError naming the field, as the range
checks beside it do: `PipelineParams(min_score=nan)` would otherwise build
an empty map, and `SceneConfig(road_length=nan)` fail deep inside
`make_scene`."""
import dataclasses
import math
import re

import pytest

from icmap.association import AssocConfig
from icmap.curvefit import SmoothingFitParams
from icmap.pipeline import PipelineParams
from icmap.synth import NoiseConfig, SceneConfig

CONFIGS = (SmoothingFitParams, AssocConfig, PipelineParams, NoiseConfig, SceneConfig)

# (config class, keyword arguments, the field the error names)
CASES = [(cls, {f.name: value}, f.name)
         for cls in CONFIGS for f in dataclasses.fields(cls) if f.type == "float"
         for value in (math.nan, math.inf, -math.inf)]
CASES += [(SceneConfig, {"range_lw": range_lw}, f"range_lw[{k}]")
          for value in (math.nan, math.inf, -math.inf)
          for k, range_lw in enumerate([(value, 50.0), (100.0, value)])]


def test_every_float_field_listed():
    assert len({(cls, named) for cls, _, named in CASES}) == 1 + 3 + 4 + 9 + 4 + 2


@pytest.mark.parametrize("cls,kwargs,named", CASES,
                         ids=[f"{cls.__name__}-{named}-{next(iter(kwargs.values()))}"
                              for cls, kwargs, named in CASES])
def test_non_finite_field_rejected(cls, kwargs, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)} must be finite$"):
        cls(**kwargs)
