"""Exception types shared across the package: one class per non-zero exit
code of the CLI, and a subclass only where a catcher reads more."""


class DereverbError(Exception):
    """Base class for all package errors."""


class ArgumentError(DereverbError, ValueError):
    """Invalid argument values or mismatched shapes/rates (exit 2)."""


class FormatError(DereverbError, OSError, ValueError):
    """Unsupported or malformed file content: an OSError (exit 3)."""


class NumericError(DereverbError, RuntimeError):
    """Solve, scene sampling, metric or alignment failed (exit 4)."""


class SingularBandError(NumericError):
    """Normal-equation solve failed even after diagonal loading."""


class DenoiserError(DereverbError, RuntimeError):
    """External denoiser process failed (exit 5)."""


class ProtocolError(DenoiserError):
    """Malformed spectrogram exchange data."""
