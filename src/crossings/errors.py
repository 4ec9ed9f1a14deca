"""Error taxonomy shared by the library and the command line front end.

Each class carries the process exit code the CLI maps it to, so library code
can raise the precise failure kind and the front end stays a thin shell.
"""

from __future__ import annotations


class CrossingsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ArgumentError(CrossingsError):
    """Bad user-supplied value (out-of-range m, malformed cycle, ...)."""

    exit_code = 2


class ResourceError(CrossingsError):
    """The requested computation exceeds the configured memory/time budget."""

    exit_code = 4


class SolverError(CrossingsError):
    """Numerical failure inside the semidefinite solver."""

    exit_code = 5


class DataError(CrossingsError):
    """Corrupt or mismatched cache file (bad magic, version, checksum)."""

    exit_code = 6
