"""Exception hierarchy shared across the package."""


class WaveBeamError(Exception):
    """Base class for all errors raised by wavebeam."""


class InvalidDimensionError(WaveBeamError, ValueError):
    """Grid size or domain length outside the operator's admissible range."""


class UnknownProfileError(WaveBeamError, ValueError):
    """Initial-data profile name not in the registry."""


class ProfileParamsError(WaveBeamError, ValueError):
    """Initial-data profile given a number of parameters it does not take."""


class UnknownNonlinearityError(WaveBeamError, ValueError):
    """Nonlinearity name not in the registry."""


class UnknownSchemeError(WaveBeamError, ValueError):
    """Time-integration scheme name not in the registry."""


class UnknownPresetError(WaveBeamError, ValueError):
    """Experiment preset id not in the registry."""


class DimensionMismatchError(WaveBeamError, ValueError):
    """Vector or matrix dimensions incompatible with the operation."""


class PhiOrderError(WaveBeamError, ValueError):
    """Requested phi-function order outside the supported range."""


class InstabilityError(WaveBeamError, RuntimeError):
    """Time stepping produced non-finite values."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class OracleScaleError(WaveBeamError, ValueError):
    """Dense-oracle routine invoked beyond its size cap."""


class ConfigError(WaveBeamError, ValueError):
    """Invalid or incomplete run configuration."""


class OutputWriteError(WaveBeamError, OSError):
    """An output file could not be written."""


class InsufficientPointsError(WaveBeamError, ValueError):
    """Too few data points for the requested fit."""
