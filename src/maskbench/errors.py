"""The shared exception type, the rule for every input number, and the grid bound."""

import contextlib
import reprlib
import sys

import numpy as np

# the most cells a density map or pyramid-level grid can hold: 2**53 float64 cells are
# 64 PiB, the whole user address space of a 64-bit machine with 57-bit virtual addresses,
# so no larger grid can ever be allocated. Grid sides come from input.
MAX_GRID_CELLS = 2**53

_FLOAT_MAX = sys.float_info.max
_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


class DataFormatError(ValueError):
    """An input file violates its documented format (bad syntax, bad values)."""


def check_number(value, name: str, *, integer: bool = False, lo=None, hi=None,
                 lo_open: bool = False, hi_open: bool = False):
    """value if it is a number in [lo, hi] (an end is open if its flag says so, unbounded if None).

    A number is never a bool or a string, an integer is an int or a numpy integer, and neither
    is NaN, infinite or beyond float range. Else ValueError: "{name} must be {domain}, got {value}".
    """
    if (isinstance(value, _INTEGERS if integer else _NUMBERS) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX  # False for NaN
            and (lo is None or (lo < value if lo_open else lo <= value))
            and (hi is None or (value < hi if hi_open else value <= hi))):
        return value
    domain = "an integer" if integer else "a finite number"
    if lo is not None and hi is not None:
        domain += f" in {'[('[lo_open]}{_bound(lo)}, {_bound(hi)}{'])'[hi_open]}"
    elif lo is not None:
        domain += f" {'>' if lo_open else '>='} {_bound(lo)}"
    elif hi is not None:
        domain += f" {'<' if hi_open else '<='} {_bound(hi)}"
    raise ValueError(f"{name} must be {domain}, got {reprlib.repr(value)}")


def plain_numbers(values: list, integer: bool = False) -> np.ndarray:
    """check_number's array form: values as float64 if each type() is int (not bool), or
    float unless integer, and each size strictly below the largest float, to which an int
    just above it rounds. Else ValueError, or OverflowError for an int beyond float range.
    So it takes no value that check_number refuses, and refuses a float of that size."""
    if {*map(type, values)} - ({int} if integer else {int, float}):
        raise ValueError("a value is not an int or a float")
    a = np.fromiter(values, np.float64, len(values))
    if not (np.abs(a) < _FLOAT_MAX).all():  # False for NaN
        raise ValueError("a value is not below the largest float in size")
    return a


def shown_path(path) -> str:
    """A path as a message shows it: as it is if printable, else through repr, so that no
    character of it (a line feed, say) splits the message's line."""
    text = str(path)
    return text if text.isprintable() else repr(text)


def _bound(b) -> str:
    """A bound as a domain shows it: a power of two from 2**16 up as 2**k."""
    return f"2**{b.bit_length() - 1}" if isinstance(b, int) and b >= 2**16 and not b & (b - 1) else str(b)


def check_grid(rows: int, cols: int, what: str) -> tuple[int, int]:
    """(rows, cols), unless what needs more than MAX_GRID_CELLS cells, which no machine can allocate."""
    if rows * cols <= MAX_GRID_CELLS:
        return rows, cols
    raise ValueError(f"{what} needs a grid of more than {_bound(MAX_GRID_CELLS)} cells")


@contextlib.contextmanager
def allocating_grid(rows: int, cols: int, what: str):
    """Refuse the grid by check_grid's rule; then a MemoryError inside names what, as a ValueError."""
    check_grid(rows, cols, what)
    try:
        yield
    except MemoryError as exc:
        raise ValueError(f"{what} needs a {rows} x {cols} grid, more than memory holds") from exc
