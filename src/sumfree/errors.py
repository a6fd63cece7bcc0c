"""Exception types and the size cap shared across the package."""

DEFAULT_MAX_ORDER = 1 << 20  # the largest group order, and the widest mask a command builds


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
