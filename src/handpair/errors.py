"""Exception hierarchy shared by all handpair modules."""


class HandpairError(Exception):
    """Base class of the errors handpair raises; there is no CLI yet that reports them."""


class DegenerateRotation(HandpairError):
    """6D rotation input whose columns cannot be orthonormalized."""


class ZeroAreaStar(HandpairError):
    """A mesh vertex whose incident faces have (near-)zero total normal."""


class InvalidSchedule(HandpairError):
    """Diffusion schedule parameters outside their legal ranges."""


class ScheduleSingularity(HandpairError):
    """Noise recovery requested at a time where alpha_bar is ~1."""


class EmptyDataset(HandpairError):
    pass


class NonFiniteLoss(HandpairError):
    """Training aborted on a NaN/Inf loss; message carries batch indices."""


class ShapeMismatch(HandpairError):
    pass


class MissingObject(HandpairError):
    """Object-conditional network called without an object cloud."""


class TooFewPoints(HandpairError):
    pass


class ChecksumMismatch(HandpairError):
    pass


class LayoutMismatch(HandpairError):
    """Artifact kind, blob layout, array shapes or units are not as expected."""


class RejectionStall(HandpairError):
    """Synthetic generation rejected 1000 consecutive candidate pairs."""
