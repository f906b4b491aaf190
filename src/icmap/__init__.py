"""icmap: instance-centric online construction of vectorized road maps.

Streams of per-frame vector detections are tracked across time, fused with
the map built so far, and merged into a persistent world-frame map; the
package also ships the matching evaluation metrics (Chamfer AP, CLEAR-MOT,
global-map Chamfer distance) and a synthetic scene generator that stands in
for a neural detector at desk scale.
"""
from .association import AssocConfig, TrackBuffer, associate_frame
from .curvefit import SmoothingFitParams, merge_polylines
from .geometry import Pose2, Rect, chamfer_distance, resample_even, transform_points
from .instance import BOUNDARY, CLASSES, DIVIDER, PED_CROSSING, GlobalMap, MapInstance
from .mapstore import load_map, merge_instance, sample_history, save_map
from .metrics import EvalReport, clear_mot, global_map_cd, instance_ap
from .pipeline import PipelineParams, run_scene
from .synth import NoiseConfig, SceneConfig, make_scene, read_scene, write_scene

__version__ = "0.1.0"

__all__ = [
    "AssocConfig",
    "BOUNDARY",
    "CLASSES",
    "DIVIDER",
    "EvalReport",
    "GlobalMap",
    "MapInstance",
    "NoiseConfig",
    "PED_CROSSING",
    "PipelineParams",
    "Pose2",
    "Rect",
    "SceneConfig",
    "SmoothingFitParams",
    "TrackBuffer",
    "associate_frame",
    "chamfer_distance",
    "clear_mot",
    "global_map_cd",
    "instance_ap",
    "load_map",
    "make_scene",
    "merge_instance",
    "merge_polylines",
    "read_scene",
    "resample_even",
    "run_scene",
    "sample_history",
    "save_map",
    "transform_points",
    "write_scene",
    "__version__",
]
