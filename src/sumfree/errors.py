"""Exception types and the size caps that more than one module reads.

Each cap is checked only by what would allocate or walk for the input:
make_group, IntervalUniverse, RandomGenConfig or an enumeration walker.
"""

DEFAULT_MAX_ORDER = 1 << 20  # the largest group order, and the widest mask a command builds
DEFAULT_GROUND_CAP = 40  # the ground size of a full walk
MAXIMUM_CAP = 63  # the maximum search reaches every group of order 64


class CapacityError(Exception):
    """A computation was refused because it exceeds a configured size cap."""


class GenerationTimeout(Exception):
    """Randomized generation exhausted its iteration budget before reaching the target.

    The partially built set is kept on the ``partial`` attribute so callers
    can inspect how far the run got.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
