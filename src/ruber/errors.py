"""Exception hierarchy shared across the package.

Each class carries the CLI's exit status for it as ``exit_code``, so a
library caller can reuse the README's codes; catching :class:`RuberError`
intercepts everything raised deliberately.
"""

from contextlib import contextmanager


class RuberError(Exception):
    """Base class for all errors raised on purpose by this package."""

    exit_code = 3  # I/O and data errors, and any subclass that states no other


class ParseError(RuberError):
    """A file could not be parsed; carries the offending location."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class ValidationError(RuberError):
    """Input data is structurally parseable but violates a documented rule."""


class ConfigError(RuberError, ValueError):
    """A configuration value (flag, config-file key or argument) is unusable."""

    exit_code = 2


class NumericalError(RuberError):
    """A computation produced non-finite values or otherwise lost meaning."""

    exit_code = 4


class CheckpointFormatError(RuberError):
    """A checkpoint file is truncated, corrupt, or of an unknown version."""


class CompatibilityError(RuberError):
    """A checkpoint does not match the supplied vocabulary or embeddings."""

    exit_code = 5


@contextmanager
def allocating(options: str):
    """Report numpy's refusal to allocate the arrays sized by ``options``.

    numpy refuses such a request at once: with MemoryError past the
    memory it can map, and with ValueError past the largest size it can
    address.  Either becomes a :class:`ConfigError` naming ``options``,
    so wrap only code whose other ValueErrors cannot occur.
    """
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{options}: arrays too large to allocate ({exc})") from exc
