"""Exception types raised by the icmap package."""


class MapBuildError(Exception):
    """Base class for all icmap errors."""


class EmptyPointSet(MapBuildError):
    """A point-set metric was asked to operate on an empty set."""


class InvalidSampleCount(MapBuildError):
    """Resampling requested with fewer than two output points."""


class MissingEmbedding(MapBuildError):
    """Feature affinity (w_feat > 0) requires embeddings on every instance."""


class ClassConflict(MapBuildError):
    """A detection's class disagrees with the stored instance of the same ID."""


class NonSimplePolygon(MapBuildError):
    """Polygon boolean operations require simple (non-self-intersecting) rings."""


class InsufficientPoints(MapBuildError):
    """Too few points for the cubic merge spline."""


class InfeasibleScene(MapBuildError):
    """Scene configuration produces degenerate geometry."""


class MapFormatError(MapBuildError):
    """A map, scene or trace file is malformed (see `fileio`); the message
    names the file and the offending field."""


class UnsupportedVersion(MapBuildError):
    """File format version not understood by this build."""


class OrderingError(MapBuildError):
    """Frames were presented out of time order."""
