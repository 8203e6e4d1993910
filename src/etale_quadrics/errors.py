"""Exception types shared across the package, and its one rule for an
integer parameter: `require_int` refuses a bool, a non-int or an int
below the parameter's bound, with the error type of its caller."""


def require_int(value, lo: int, what: str, error: type = ValueError) -> None:
    """Raise error unless value is an int, not a bool, and at least lo."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise error(f"{what} must be an integer >= {lo}, got {value!r}")


class InvalidIndex(ValueError):
    """A Rost-motive index that is not an integer n >= 1."""


class InvalidDimension(ValueError):
    """A quadric dimension that is not an integer d >= 1."""


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
