"""The canonical JSON writer against the json module, its column-wise
writer and the CSV writer against row-wise references, and the checks of
SweepSpec."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allee_lab.dynamics import integrate
from allee_lab.model import ModelParams, State
from allee_lab.reporting import (
    _column_text,
    SWEEP_COLUMNS,
    SweepSpec,
    dumps_canonical,
    dumps_canonical_rows,
    sweep_csv,
    trajectory_csv,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
floats = st.one_of(
    finite,
    finite.map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7]),
)
texts = st.one_of(
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\b\f\n\r\t", "é ü ß", "  ",
                     "\U0001f600", "E1"]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**63) + 2),
    floats,
    texts,
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(texts, children, max_size=6),
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(trees)
def test_equals_json_dumps(obj):
    assert dumps_canonical(obj) == reference(obj)


def test_signed_zeros_are_kept_apart():
    zeros = [0.0, -0.0, 0.0, -0.0]
    for obj in (zeros, {"a": zeros, "b": [zeros, (-0.0, 0.0)]}, -0.0, 0.0):
        assert dumps_canonical(obj) == reference(obj)
    assert dumps_canonical(zeros) == "[\n  0.0,\n  -0.0,\n  0.0,\n  -0.0\n]\n"


def test_repeated_floats_and_keys():
    obj = [{"x": 0.1, "y": [0.1, 1e-300, 0.1]}, {"x": 1e-300, "y": [np.float64(0.1)]}]
    assert dumps_canonical(obj) == reference(obj)


class Count(int):
    def __repr__(self):
        return "Count()"


def test_float_and_int_subclasses_use_the_builtin_text():
    assert dumps_canonical(np.float64(0.1)) == "0.1\n"
    assert dumps_canonical([np.float64(-0.0)]) == "[\n  -0.0\n]\n"
    obj = {"n": Count(7), "m": [Count(-3), True, False, None]}
    assert dumps_canonical(obj) == reference(obj)
    assert dumps_canonical(Count(7)) == "7\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")],
                         ids=["nan", "inf", "-inf", "np.float64-nan"])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"a": {"b": [v]}}],
                         ids=["top", "list", "dict"])
def test_non_finite_raises_value_error(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(ValueError) as want:
        reference(obj)
    with pytest.raises(ValueError) as got:
        dumps_canonical(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), set(), object()],
                         ids=["np.int64", "np.bool_", "set", "object"])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [v], lambda v: {"a": (1, v)}],
                         ids=["top", "list", "dict"])
def test_unsupported_value_raises_type_error(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(TypeError) as want:
        reference(obj)
    with pytest.raises(TypeError) as got:
        dumps_canonical(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1,)])
def test_non_str_key_raises_type_error(key):
    # narrower than json, which writes int, float, bool and None keys as strings
    with pytest.raises(TypeError, match="keys must be str"):
        dumps_canonical({key: 1})
    with pytest.raises(TypeError, match="keys must be str"):
        dumps_canonical([{"a": {key: 1}}])


def _row(doc, i: int):
    # report i of a column document: each tuple replaced by its i-th value
    if isinstance(doc, tuple):
        return doc[i]
    if isinstance(doc, dict):
        return {k: _row(v, i) for k, v in doc.items()}
    return [_row(v, i) for v in doc] if isinstance(doc, list) else doc


class _Column(int):
    """A leaf of a drawn report tree that takes the column of that index."""


# "\0" is the writer's hole, and "%" must not reach its row format unescaped
_keys = st.one_of(texts, st.sampled_from(["%", "%s", "%%d"])).filter(lambda t: t != "\0")
_trees = st.dictionaries(_keys, st.recursive(
    st.one_of(st.integers(0, 2).map(_Column), st.none(), st.booleans(), st.integers(),
              finite, _keys),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_keys, children, max_size=4)),
    max_leaves=8), max_size=4)


def _fill(tree, columns):
    if isinstance(tree, _Column):
        return columns[tree]
    if isinstance(tree, dict):
        return {k: _fill(v, columns) for k, v in tree.items()}
    return [_fill(v, columns) for v in tree] if isinstance(tree, list) else tree


@st.composite
def column_docs(draw) -> tuple[dict, int]:
    # a report tree whose leaves are shared scalars or one of three columns,
    # so that a column can appear twice; column values repeat and may be
    # zeros of either sign or non-finite
    n = draw(st.integers(min_value=1, max_value=5))
    pool = draw(st.lists(st.one_of(finite, st.floats()), min_size=1, max_size=4))
    column = st.one_of(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                       st.lists(st.booleans(), min_size=n, max_size=n)).map(tuple)
    columns = [draw(column) for _ in range(3)]
    doc = _fill(draw(_trees), columns)
    doc["\0 column"] = columns[0]  # at least one column
    return doc, n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(column_docs())
def test_rows_equal_the_row_wise_writer(doc_rows):
    doc, n = doc_rows
    rows = [_row(doc, i) for i in range(n)]
    try:
        want = dumps_canonical(rows)
    except ValueError as err:  # a non-finite value: the same one is named
        with pytest.raises(ValueError) as got:
            dumps_canonical_rows(doc)
        assert str(got.value) == str(err)
    else:
        assert dumps_canonical_rows(doc) == want


@pytest.mark.parametrize("seed", [3, 17])
def test_trajectory_csv_rows_equal_the_scalar_formula(seed):
    rng = np.random.default_rng(seed)
    p = ModelParams(q=rng.uniform(0.5, 2.0), s=rng.uniform(0.2, 2.0),
                    h=rng.uniform(0.01, 0.2), m=rng.uniform(0.05, 0.5))
    traj = integrate(p, State(rng.uniform(0.3, 1.0), rng.uniform(0.1, 1.0)),
                     t_max=30.0)
    lines = ["t,x,y"] + [f"{float(t)!r},{float(x)!r},{float(y)!r}"
                         for t, x, y in zip(traj.t, traj.x, traj.y)]
    assert len(lines) > 10
    assert trajectory_csv(traj) == "\n".join(lines) + "\n"


def reference_csv(columns: dict[str, list]) -> str:
    rows = zip(*(columns[name] for name in SWEEP_COLUMNS))
    return "\n".join([",".join(SWEEP_COLUMNS), *(",".join(map(str, row)) for row in rows)]) + "\n"


cells = st.one_of(
    floats,
    st.floats(),
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, True, "", "StableNode", np.float64(-0.0),
                     np.float64(1.0), 5e-324, 1.7976931348623157e308]),
)


@st.composite
def sweep_tables(draw) -> dict[str, list]:
    # up to three distinct columns, repeated over the table's width; each
    # draws its rows from a pool of a few cells, so that values repeat and
    # the formatter's memo is used
    n = draw(st.integers(min_value=1, max_value=8))
    distinct = [draw(st.lists(st.sampled_from(draw(st.lists(cells, min_size=1, max_size=3))),
                              min_size=n, max_size=n))
                for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return {name: distinct[i % len(distinct)] for i, name in enumerate(SWEEP_COLUMNS)}


@settings(derandomize=True, max_examples=600, deadline=None)
@given(sweep_tables())
def test_sweep_csv_equals_the_row_wise_writer(columns):
    assert sweep_csv(columns) == reference_csv(columns)


def test_sweep_csv_keeps_each_zero_and_number_type():
    columns = {name: [""] * 4 for name in SWEEP_COLUMNS}
    columns["delta1"] = [0.0, -0.0, 0.0, -0.0]
    columns["delta2"] = [-0.0, 0.0, -0.0, 0.0]
    columns["h1"] = [1.0, 1, 1.0, 1.0]
    columns["h2"] = [2.5, 2.5, np.float64(2.5), 2.5]
    text = sweep_csv(columns)
    assert text == reference_csv(columns)
    assert [line.split(",")[13:17] for line in text.splitlines()[1:]] == [
        ["0.0", "-0.0", "1.0", "2.5"], ["-0.0", "0.0", "1", "2.5"],
        ["0.0", "-0.0", "1.0", "2.5"], ["-0.0", "0.0", "1.0", "2.5"]]


@st.composite
def long_columns(draw) -> list:
    # columns long enough for the formatter's guess at distinct values to
    # sample them: a drawn pool of cells in runs (a grid's eta1), in cycles
    # (its eta2), in a drawn order, or the pool itself
    pool = draw(st.lists(st.one_of(cells, finite), min_size=1, max_size=80))
    n = draw(st.integers(min_value=1, max_value=200))
    layout = draw(st.sampled_from(["runs", "cycles", "drawn", "pool"]))
    if layout == "pool":
        return pool
    if layout == "runs":
        return [pool[i * len(pool) // n] for i in range(n)]
    if layout == "cycles":
        return [pool[i % len(pool)] for i in range(n)]
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(long_columns())
def test_column_text_is_str_of_each_cell(column):
    assert _column_text(column) == list(map(str, column))


def test_column_text_of_distinct_floats_with_a_late_text_cell():
    column = [0.1 * i for i in range(1, 100)] + [""]
    assert _column_text(column) == list(map(str, column))


# the checks that the CLI's parser keeps from ever failing
@pytest.mark.parametrize("parameter, lo, hi, steps, fixed, named", [
    ("x", 0.1, 0.2, 3, {"q": 1.0, "s": 1.0, "m": 0.2}, "parameter must be one of q, s, h, m"),
    ("h", 0.2, 0.1, 3, {"q": 1.0, "s": 1.0, "m": 0.2}, r"need lo < hi, got \[0.2, 0.1\]"),
    ("h", 0.1, 0.2, 1, {"q": 1.0, "s": 1.0, "m": 0.2}, "need at least 2 steps, got 1"),
    ("h", 0.1, 0.2, 3, {"q": 1.0, "s": 1.0}, r"missing fixed parameter values: \['m'\]"),
    ("h", 0.1, 0.2, 3, {"q": 1.0, "s": 1.0, "m": 0.2, "k": 1.0},
     r"unknown fixed parameters: \['k'\]"),
], ids=["parameter", "lo-hi", "steps", "missing", "unknown"])
def test_sweep_spec_rejects(parameter, lo, hi, steps, fixed, named):
    with pytest.raises(ValueError, match=named):
        SweepSpec(parameter, lo, hi, steps, fixed)
    # _make and _replace, which builds through _make, check as the constructor does
    with pytest.raises(ValueError, match=named):
        SweepSpec._make((parameter, lo, hi, steps, fixed))
    good = SweepSpec("h", 0.1, 0.2, 3, {"q": 1.0, "s": 1.0, "m": 0.2})
    with pytest.raises(ValueError, match=named):
        good._replace(parameter=parameter, lo=lo, hi=hi, steps=steps, fixed=fixed)
    with pytest.raises(AttributeError):
        good.steps = steps
