"""errors.check_number, the one rule for input numbers, its array form plain_numbers, and the
grid bound (check_grid, allocating_grid)."""

import math
import os
import reprlib
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskbench import errors
from maskbench.errors import MAX_GRID_CELLS, allocating_grid, check_grid, check_number, plain_numbers

_FLOAT_MAX_INT = int(sys.float_info.max)


@pytest.mark.parametrize("value, kwargs", [
    (0, {}), (-7, {}), (2.5, {}), (np.float64(2.5), {}), (np.int64(3), {}),
    (_FLOAT_MAX_INT, {}), (-_FLOAT_MAX_INT, {}), (sys.float_info.max, {}),
    (3, {"integer": True}), (np.int64(-3), {"integer": True}), (2**64, {"integer": True}),
    (-0.0, {"lo": 0}), (5e-324, {"lo": 0, "lo_open": True}),
    (0, {"lo": 0}), (1, {"hi": 1}), (0.5, {"lo": 0, "hi": 1, "lo_open": True, "hi_open": True}),
    (1, {"lo": 0, "hi": 1, "lo_open": True}), (0, {"lo": 0, "hi": 1, "hi_open": True}),
    (2**32 - 1, {"integer": True, "lo": 1, "hi": 2**32, "hi_open": True}),
])
def test_a_number_in_its_domain_is_returned_as_is(value, kwargs):
    assert check_number(value, "x", **kwargs) is value


@pytest.mark.parametrize("value, kwargs, message", [
    # bools and strings are never numbers
    (True, {}, "x must be a finite number, got True"),
    (False, {"integer": True}, "x must be an integer, got False"),
    (np.bool_(True), {}, "x must be a finite number, got np.True_"),
    ("1", {}, "x must be a finite number, got '1'"),
    ("nan", {"lo": 0}, "x must be a finite number >= 0, got 'nan'"),
    (None, {}, "x must be a finite number, got None"),
    ([1], {}, "x must be a finite number, got [1]"),
    # an integer is an int
    (2.0, {"integer": True}, "x must be an integer, got 2.0"),
    (np.float64(8), {"integer": True}, "x must be an integer, got np.float64(8.0)"),
    # NaN, the infinities, and ints beyond float range
    (math.nan, {}, "x must be a finite number, got nan"),
    (math.inf, {"lo": 0}, "x must be a finite number >= 0, got inf"),
    (-math.inf, {"hi": 0}, "x must be a finite number <= 0, got -inf"),
    (_FLOAT_MAX_INT + 1, {}, f"x must be a finite number, got {reprlib.repr(_FLOAT_MAX_INT + 1)}"),
    (10**400, {"integer": True}, "x must be an integer, got 100000000000000000...0000000000000000000"),
    (-(10**400), {"integer": True, "hi": 0},
     "x must be an integer <= 0, got -10000000000000000...0000000000000000000"),
    # each end, open and closed
    (-0.0, {"lo": 0, "lo_open": True}, "x must be a finite number > 0, got -0.0"),
    (0, {"lo": 0, "hi": 1, "lo_open": True}, "x must be a finite number in (0, 1], got 0"),
    (-5e-324, {"lo": 0}, "x must be a finite number >= 0, got -5e-324"),
    (5e-324, {"hi": 0}, "x must be a finite number <= 0, got 5e-324"),
    (1, {"hi": 1, "hi_open": True}, "x must be a finite number < 1, got 1"),
    (1.0000000000000002, {"lo": 0, "hi": 1}, "x must be a finite number in [0, 1], got 1.0000000000000002"),
    (1, {"lo": 0, "hi": 1, "hi_open": True}, "x must be a finite number in [0, 1), got 1"),
    (0, {"lo": 0, "hi": 1, "lo_open": True, "hi_open": True}, "x must be a finite number in (0, 1), got 0"),
    (0, {"integer": True, "lo": 1}, "x must be an integer >= 1, got 0"),
    (3, {"integer": True, "lo": 3, "lo_open": True}, "x must be an integer > 3, got 3"),
    # a bound that is a large power of two reads as one
    (2**32, {"integer": True, "lo": 1, "hi": 2**32, "hi_open": True},
     "x must be an integer in [1, 2**32), got 4294967296"),
    (-1075, {"integer": True, "lo": -1074, "hi": 1023}, "x must be an integer in [-1074, 1023], got -1075"),
])
def test_anything_else_is_refused_naming_its_domain(value, kwargs, message):
    with pytest.raises(ValueError) as exc:
        check_number(value, "x", **kwargs)
    assert type(exc.value) is ValueError and str(exc.value) == message


# values at and around the edges of float range, and everything else JSON can hold
_EDGES = [sys.float_info.max, -sys.float_info.max, _FLOAT_MAX_INT, -_FLOAT_MAX_INT,
          _FLOAT_MAX_INT - 1, _FLOAT_MAX_INT + 1, _FLOAT_MAX_INT + 2**960, _FLOAT_MAX_INT + 2**971,
          10**400, -(10**400), math.nextafter(sys.float_info.max, 0), 2**53 + 1, -0.0, 0]
_VALUES = st.one_of(st.integers(), st.integers(-2**1100, 2**1100), st.floats(),
                    st.sampled_from(_EDGES), st.sampled_from([True, False, None, "1", [1]]))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(_VALUES, max_size=8), st.booleans())
def test_plain_numbers_takes_only_what_check_number_takes(values, integer):
    try:
        got = plain_numbers(values, integer)
    except (ValueError, OverflowError):
        return
    for v in values:
        assert check_number(v, "x", integer=integer) is v
    assert got.dtype == np.float64
    assert got.tobytes() == np.array([float(v) for v in values], dtype=np.float64).tobytes()


@pytest.mark.parametrize("values, integer, error", [
    ([1, True], False, ValueError),
    ([1.5, "2"], False, ValueError),
    ([None], False, ValueError),
    ([float("nan")], False, ValueError),
    ([float("inf")], False, ValueError),
    ([0.5, -float("inf")], False, ValueError),
    ([_FLOAT_MAX_INT], False, ValueError),
    ([-_FLOAT_MAX_INT], False, ValueError),
    ([_FLOAT_MAX_INT + 1], False, ValueError),
    ([10**400], False, OverflowError),
    ([-(10**400)], True, OverflowError),
    ([3, 2.0], True, ValueError),
    ([sys.float_info.max], False, ValueError),
], ids=["bool", "str", "none", "nan", "inf", "minus-inf", "int-max", "minus-int-max",
        "int-max-plus-1", "10**400", "minus-10**400", "float-for-integer", "float-max"])
def test_plain_numbers_refuses(values, integer, error):
    with pytest.raises(error):
        plain_numbers(values, integer)


def test_the_echo_is_bounded():
    with pytest.raises(ValueError) as exc:
        check_number("m" * 10_000, "label size")
    assert str(exc.value) == "label size must be a finite number, got 'mmmmmmmmmmmm...mmmmmmmmmmmmm'"


@pytest.mark.parametrize("rows, cols", [(1, 1), (4097, 4096), (2**26, 2**27), (1, MAX_GRID_CELLS)])
def test_a_grid_within_the_bound_is_returned(rows, cols):
    assert check_grid(rows, cols, "it") == (rows, cols)


@pytest.mark.parametrize("rows, cols", [
    (2**26 + 1, 2**27), (1, MAX_GRID_CELLS + 1), (2**44, 2**44), (16 << 1074, 16 << 1074),
])
def test_a_grid_above_the_bound_is_refused_naming_its_owner(rows, cols):
    with pytest.raises(ValueError) as exc:
        check_grid(rows, cols, "level 3 of a 16 x 16 frame")
    assert str(exc.value) == "level 3 of a 16 x 16 frame needs a grid of more than 2**53 cells"


def test_the_bound_is_more_than_any_address_space_holds():
    # 2**53 float64 cells are 2**56 bytes, all of a 57-bit address space's user half
    assert MAX_GRID_CELLS * 8 == 2**56


def test_allocating_grid_names_its_owner_when_memory_runs_out():
    with pytest.raises(ValueError) as exc:
        with allocating_grid(3, 5, "a 40 x 24 frame at downscale 8"):
            raise MemoryError("Unable to allocate 120. B")
    assert str(exc.value) == "a 40 x 24 frame at downscale 8 needs a 3 x 5 grid, more than memory holds"
    assert isinstance(exc.value.__cause__, MemoryError)


def test_allocating_grid_refuses_a_grid_above_the_bound_before_its_body():
    ran = []
    with pytest.raises(ValueError, match=r"^it needs a grid of more than 2\*\*53 cells$"):
        with allocating_grid(2**27, 2**27, "it"):
            ran.append(True)
    assert ran == []


def test_allocating_grid_passes_other_errors_and_results_through():
    with allocating_grid(2, 2, "it"):
        value = 4
    assert value == 4
    with pytest.raises(OverflowError, match="^kept$"):
        with allocating_grid(2, 2, "it"):
            raise OverflowError("kept")


@pytest.mark.parametrize("code, message", [
    ("from maskbench.anchors import generate_anchors; generate_anchors(2**31, 32, [3], [8.0])",
     "pyramid level 3 of a 2147483648 x 32 frame needs a 4 x 268435456 grid, more than memory holds"),
    ("from maskbench.density import PointSet, render_density; "
     "render_density(PointSet(((1, 1),), 2**31, 16), downscale=1)",
     "a 2147483648 x 16 frame at downscale 1 needs a 16 x 2147483648 grid, more than memory holds"),
], ids=["anchors", "density-map"])
def test_a_grid_below_the_bound_that_does_not_fit_names_its_owner(code, message):
    # each grid is GiBs, so the run gets a 1-GiB address space and is never unbounded
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(errors.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, preexec_fn=limit)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == f"ValueError: {message}"
