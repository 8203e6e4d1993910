"""Exception types shared across the package."""


class InvalidIndex(ValueError):
    """A Rost-motive index that is not an integer n >= 1."""


class InvalidDimension(ValueError):
    """A quadric dimension outside the supported range (d >= 1)."""


class NotStabilized(RuntimeError):
    """An inverse system whose image chains did not become constant
    within the supplied tower depth / stabilization window."""


class HigherTorsionAmbiguity(RuntimeError):
    """The Bockstein pairing bookkeeping disagreed with the independently
    computed Bockstein homology, so the integral answer would need
    higher-torsion input that the model cannot provide.  Never expected
    for the motives in scope; raised instead of guessing."""


class NonHomogeneousRelation(ValueError):
    """A ring relation that is not homogeneous for the generator degrees."""


class UnknownFamily(ValueError):
    """An unrecognized built-in presentation family name."""
