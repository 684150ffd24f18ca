"""Exception types shared across the package."""


class DegenerateGeometryError(ValueError):
    """A construction degenerates for this configuration."""


class DegenerateInputError(DegenerateGeometryError):
    """Inputs admit no well-defined construction (coincident points, equal lines)."""


class PointAtInfinityError(DegenerateGeometryError):
    """A finite image point or a finite depth was required."""


class BehindEyeError(DegenerateGeometryError):
    """Scene point does not lie in front of the relevant eye."""


class DegenerateConfigurationError(DegenerateGeometryError):
    """A data set does not constrain the parameters being estimated."""


class SchemaError(ValueError):
    """A record file cannot be read or does not match the expected schema."""
