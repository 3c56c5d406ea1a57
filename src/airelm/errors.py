"""Error taxonomy shared across the package.

ConfigError and DataError subclass ValueError and OutputError subclasses
OSError, so library code can be used without importing them; the CLI maps
them to distinct exit codes (config -> 1, data -> 2, output -> 3).
"""


class ConfigError(ValueError):
    """Invalid configuration: bad parameter value, unknown key, missing file."""


class DataError(ValueError):
    """Malformed or unusable input data: parse failures, bad cells or labels."""


class OutputError(OSError):
    """The results cannot be written: missing output directory, unwritable path."""


def shown(value) -> str:
    """repr(value) for an error message, or, for an integer beyond Python's
    int-to-str digit limit, which repr refuses, its sign and bit length."""
    try:
        return repr(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"
