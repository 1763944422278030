"""The float speller ``numtext._reprs`` against ``float.__repr__``, with
its size floor bypassed so that every array takes the numpy path: random
bit patterns of every class, the fixed sets whose texts change form or
length (powers of 10 and of 2, integers, the layout edges, the longest
repr), and arrays that mix normal values with those spelled by ``repr``
one at a time, or by the speller the caller gives."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qrwalk import numtext

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: The values whose text changes form or is longest: both zeros, the
#: layout edges 1e-4 / 1e-5 and 1e15 / 1e16, the smallest subnormal and
#: normal, the largest double, and the longest repr (24 characters).
EDGES = [0.0, -0.0, 1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0, 5e-324,
         2.2250738585072014e-308, -2.2250738585072014e-308,
         1.7976931348623157e308, 0.1, 0.5, 1.0, 123.0, 1.5e16, -1e-5]
#: Values ``repr`` spells one at a time inside a vectorised array.
NON_NORMAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
              2.225073858507201e-308]
#: Bit patterns of doubles: any; a subnormal or zero of either sign; and
#: hypothesis' floats, rich in infinities, NaNs and edges.
BITS = (st.integers(0, 2**64 - 1)
        | st.tuples(st.integers(0, 1), st.integers(0, 2**52 - 1))
        .map(lambda s: s[0] << 63 | s[1])
        | st.floats().map(lambda x: int(np.float64(x).view(np.uint64))))


def spelled(values) -> list[str]:
    """The texts ``_reprs`` gives, each row without its NULs, with the
    floor bypassed."""
    with mock.patch.object(numtext, "FLOAT_FLOOR", 0):
        table = numtext._reprs(np.asarray(values))
    assert table.dtype == np.uint8 and table.shape[0] == len(values)
    return [bytes(row).replace(b"\0", b"").decode() for row in table]


def reprs(values) -> list[str]:
    return list(map(float.__repr__, np.asarray(values).tolist()))


@SETTINGS
@given(hnp.arrays(np.uint64, st.integers(1, 64), elements=BITS))
def test_random_bit_patterns_spell_as_repr(bits):
    values = bits.view(np.float64)
    assert spelled(values) == reprs(values)


@pytest.mark.parametrize("values", [
    [10.0 ** k for k in range(-323, 309)],
    [float(f"1e{k}") for k in range(-323, 309)],
    [2.0 ** k for k in range(-1074, 1024)],
    [-(2.0 ** k) for k in range(-1074, 1024)],
    EDGES,
], ids=["powers-of-10", "decimal-powers-of-10", "powers-of-2",
        "negative-powers-of-2", "edges"])
def test_fixed_sets_spell_as_repr(values):
    assert spelled(values) == reprs(values)


def test_integers_and_uniforms_spell_as_repr():
    # several blocks, the last one partial, with non-normal values in each
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.integers(0, 2**53, 4000).astype(np.float64),
        rng.integers(0, 10**6, 2000).astype(np.float64),
        rng.random(4000), rng.random(2000) * 10.0 ** rng.integers(-20, 20)])
    assert values.size > 2 * numtext.FLOAT_BLOCK
    values[::997] = np.resize(NON_NORMAL, values[::997].size)
    assert spelled(values) == reprs(values)


def test_the_longest_repr_fills_the_table():
    [text] = spelled([-2.2250738585072014e-308])
    assert text == "-2.2250738585072014e-308" and len(text) == 24


def test_non_normal_values_inside_a_normal_array():
    rng = np.random.default_rng(3)
    values = rng.random(40) * 10.0 ** rng.integers(-30, 30, 40)
    values[::5] = NON_NORMAL
    assert spelled(values) == reprs(values)
    assert spelled(NON_NORMAL) == reprs(NON_NORMAL)


def test_narrow_floats_are_widened_as_tolist_does():
    for dtype, top in ((np.float32, 3.4e38), (np.float16, 6.0e4)):
        values = np.array([0.1, 1e-5, top, 1.5, -7.25e-3], dtype)
        assert spelled(values) == reprs(values)


def test_the_floor_picks_the_path_by_size():
    # below the floor repr spells each value; at it the numpy path runs
    values = np.random.default_rng(5).random(numtext.FLOAT_FLOOR)
    calls, shortest = [], numtext._shortest

    def spy(bits):
        calls.append(bits.size)
        return shortest(bits)
    with mock.patch.object(numtext, "_shortest", spy):
        below = numtext._reprs(values[1:])
        at = numtext._reprs(values)
    assert calls == [numtext.FLOAT_FLOOR]
    assert [bytes(row).replace(b"\0", b"").decode() for row in at[1:]] \
        == [bytes(row).replace(b"\0", b"").decode() for row in below] \
        == reprs(values[1:])


@pytest.mark.parametrize("size", [60, numtext.FLOAT_FLOOR])
def test_a_given_speller_spells_what_repr_would(size):
    # json.dumps, the JSON form's: NaN and +-inf its own way, every finite
    # value as repr does, below the floor and above it
    rng = np.random.default_rng(9)
    values = rng.random(size) * 10.0 ** rng.integers(-30, 30, size)
    values[:len(NON_NORMAL)] = NON_NORMAL
    table = numtext._reprs(values, json.dumps)
    assert [bytes(row).replace(b"\0", b"").decode() for row in table] \
        == [repr(v) if math.isfinite(v) else json.dumps(v)
            for v in values.tolist()]
    assert [json.dumps(v) for v in (np.nan, np.inf, -np.inf)] \
        == ["NaN", "Infinity", "-Infinity"]


#: The exponent range of the first digit of each form a normal double's
#: text takes: positional below 1 with 0 to 3 zeros after the point,
#: positional in [1, 1e16), and the exponent form with a negative or a
#: positive exponent of 2 or 3 digits.
FORMS = {"0.d": (-1, -1), "0.0d": (-2, -2), "0.00d": (-3, -3),
         "0.000d": (-4, -4), "d.d": (0, 15), "de-XX": (-99, -5),
         "de-XXX": (-307, -100), "de+XX": (16, 99), "de+XXX": (100, 307)}


@st.composite
def form_values(draw) -> float:
    """A normal double of one of the :data:`FORMS`, each form as likely,
    with 1 digit, 17 digits or any number between, of either sign."""
    lo, hi = draw(st.sampled_from(list(FORMS.values())))
    e = draw(st.integers(lo, hi))
    n = draw(st.sampled_from([1, 17]) | st.integers(1, 17))
    digits = draw(st.integers(10 ** (n - 1), 10 ** n - 1))
    return draw(st.sampled_from([1.0, -1.0])) * float(f"{digits}e{e - n + 1}")


@SETTINGS
@given(st.lists(form_values(), min_size=1, max_size=64),
       st.integers(0, 2**32 - 1))
def test_every_form_mixed_in_one_block_spells_as_repr(values, seed):
    # the drawn values repeated and shuffled to fill one whole block
    block = np.random.default_rng(seed).permutation(
        np.resize(np.array(values), numtext.FLOAT_BLOCK))
    assert spelled(block) == reprs(block)


@pytest.mark.parametrize("form, values", [
    ("0.d", [0.5, 0.12345678901234568, -0.1]),
    ("0.0d", [0.05, 0.012345678901234568]),
    ("0.00d", [0.001, -0.0012345678901234567]),
    ("0.000d", [0.0001, 0.00012345678901234567]),
    ("d.d", [1.0, 123.456, 1e15, 9999999999999998.0, 1.2345678901234567]),
    ("de-XX", [1e-05, -1.2345678901234567e-05, 9e-99]),
    ("de-XXX", [1e-100, 1.2345678901234567e-100, -2.5e-307]),
    ("de+XX", [1e+16, -1.2345678901234567e+16, 5e+99]),
    ("de+XXX", [1e+100, 1.2345678901234567e+300, -3e+200]),
])
def test_each_form_with_one_and_seventeen_digits(form, values):
    lo, hi = FORMS[form]
    assert all(lo <= int(f"{v:.16e}".split("e")[1]) <= hi for v in values)
    kept = {len(repr(abs(v)).split("e")[0].replace(".", "").strip("0"))
            for v in values}
    assert {1, 17} <= kept
    assert spelled(values) == reprs(values)


@pytest.mark.parametrize("negative", [False, True])
def test_the_table_is_no_wider_than_the_longest_text(negative):
    # 24 columns hold the longest repr, -2.2250738585072014e-308; with no
    # value negative the sign column goes, and 23 remain
    rng = np.random.default_rng(11)
    values = rng.random(numtext.FLOAT_FLOOR) \
        * 10.0 ** rng.integers(-307, 308, numtext.FLOAT_FLOOR)
    values[:2] = [2.2250738585072014e-308, 0.00012345678901234567]
    if negative:
        values[::3] *= -1
    table = numtext._reprs(values)
    assert table.shape[1] <= (24 if negative else 23)
    assert [bytes(row).replace(b"\0", b"").decode() for row in table] \
        == reprs(values)


def test_only_values_in_one_to_1e16_reach_the_per_row_layout():
    # a block below 1 and in the exponent form is laid out by the template
    # alone; the rows in [1, 1e16) are laid out again, and only those
    rng = np.random.default_rng(13)
    size = numtext.FLOAT_FLOOR
    values = np.where(rng.random(size) < 0.5, rng.random(size),
                      rng.uniform(1, 10, size)
                      * 10.0 ** rng.integers(16, 300, size))
    values[::2] *= -1
    calls, positional = [], numtext._positional

    def spy(rows, *args):
        calls.append(rows.copy())
        return positional(rows, *args)
    with mock.patch.object(numtext, "_positional", spy):
        assert spelled(values) == reprs(values)
        assert calls == []
        values[[7, 500]] = [1.0, -123456.789]
        assert spelled(values) == reprs(values)
    assert [c.tolist() for c in calls] == [[7, 500]]
