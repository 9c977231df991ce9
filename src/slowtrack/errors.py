"""Exception types shared across the package."""


class DataError(Exception):
    """Invalid or inconsistent input data (bad file contents, empty sets)."""


class PgmFormatError(DataError):
    """Malformed PGM file; the message names the byte offset of the fault."""


class ModelFormatError(DataError):
    """Malformed model file; the message names the offending field or offset."""


class OptimizationError(Exception):
    """The optimizer could not produce a usable result."""


class LineSearchError(OptimizationError):
    """No step satisfying the strong Wolfe conditions was found."""


class TrackingLostError(Exception):
    """Every candidate was rejected; a run adds the frame index, earlier boxes and events."""

    def __init__(self, frame_index=None, boxes=None, events=()):
        where = "" if frame_index is None else f" at frame {frame_index}"
        super().__init__(f"tracking lost{where}")
        self.frame_index = frame_index
        self.boxes = boxes
        self.events = events
