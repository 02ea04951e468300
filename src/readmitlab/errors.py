"""Exception taxonomy shared across the package, what np.load raises on a
file it cannot read, the one reader of a text or JSON file, the one check
of a count setting, the one check of a setting that names a choice, and the
type tests of integer and real settings.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, NumericError -> 3.
"""

import json
import numbers
import tokenize
import zipfile
import zlib
from pathlib import Path


class ConfigError(Exception):
    """Invalid experiment configuration (unknown field, bad value, missing seed)."""


class DataError(Exception):
    """Dataset contract violation (missing file, bad cell, label out of range)."""


class NumericError(Exception):
    """Numeric failure during training (a non-finite loss or boosting score)."""


# what np.load raises on a file that is missing, truncated, garbage or not the
# .npy or .npz it should be; its .npy header parser lets tokenize's errors through
UNREADABLE = (OSError, ValueError, KeyError, EOFError, SyntaxError, tokenize.TokenError,
              zipfile.BadZipFile, zlib.error)


def read_text(path: Path, error) -> str:
    """The UTF-8 text of the file at path; a missing file, one that cannot be
    read (a directory included) and one that is not UTF-8 raise `error`
    naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{path}: file not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot be read as UTF-8 text ({type(exc).__name__})") from None


def json_object(path: Path, error) -> dict:
    """The JSON object in the file at path; anything else raises `error`
    naming it (see read_text)."""
    try:
        payload = json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise error(f"{path}: not a JSON object")
    return payload


def is_integer(value) -> bool:
    """An integer setting's type: any integral number but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A float setting's type: any real number but a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """A count setting `name` must be an integer of at least `least`; a
    ValueError otherwise."""
    if not is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_choice(noun: str, value, choices) -> None:
    """A setting that names one of `choices` must be a str among them; a
    ValueError naming the `noun`, the value and the choices otherwise. The
    value is never hashed, so a list fails here like any other non-name."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {noun} {value!r}; expected one of {tuple(choices)}")
