from __future__ import annotations

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answer_or_search.analysis import (
    HistogramSpec,
    histogram,
    tradeoff_curve,
    write_histogram_table,
    write_tradeoff_table,
)
from answer_or_search.errors import DataError

from oracles import numpy_histogram

LORA_NQ = dict(c0=21.3, h0=16.6, s=62.0)


# ---------------------------------------------------------------------------
# trade-off curve
# ---------------------------------------------------------------------------


def test_tradeoff_midpoint_ratio():
    (pt,) = tradeoff_curve(**LORA_NQ, ratios=[0.5])
    assert pt.c == pytest.approx(52.3)
    assert pt.h == pytest.approx(47.6)


def test_tradeoff_perfect_search():
    (pt,) = tradeoff_curve(**LORA_NQ, ratios=[1.0])
    assert pt.c == pytest.approx(83.3)
    assert pt.h == pytest.approx(16.6)


def test_tradeoff_useless_search():
    (pt,) = tradeoff_curve(**LORA_NQ, ratios=[0.0])
    assert pt.c == pytest.approx(21.3)
    assert pt.h == pytest.approx(78.6)


def test_tradeoff_rejects_out_of_range_ratio():
    with pytest.raises(DataError):
        tradeoff_curve(**LORA_NQ, ratios=[1.2])
    with pytest.raises(DataError):
        tradeoff_curve(**LORA_NQ, ratios=[-0.1])


def test_tradeoff_rejects_bad_rate_sum():
    with pytest.raises(DataError):
        tradeoff_curve(30.0, 30.0, 30.0, ratios=[0.5])


def test_tradeoff_rejects_nan_rates():
    import math

    with pytest.raises(DataError):
        tradeoff_curve(math.nan, 16.6, 62.0, ratios=[0.5])


def test_tradeoff_tolerates_published_rounding_residue():
    # 21.3 + 16.6 + 62.0 = 99.9: one-decimal rates may miss 100 slightly
    points = tradeoff_curve(**LORA_NQ, ratios=[0.0, 1.0])
    assert len(points) == 2


rates = st.tuples(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
).filter(lambda ch: ch[0] + ch[1] <= 100.0)


@given(rates, st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_tradeoff_conservation_and_endpoints(ch, ratios):
    c0, h0 = ch
    s = max(0.0, 100.0 - c0 - h0)  # guard tiny negative float residue
    points = tradeoff_curve(c0, h0, s, ratios + [0.0, 1.0])
    for pt in points:
        assert pt.c + pt.h == pytest.approx(c0 + h0 + s)
    by_ratio = {pt.ratio: pt for pt in points}
    assert by_ratio[0.0].c == pytest.approx(c0)
    assert by_ratio[1.0].h == pytest.approx(h0)


def test_tradeoff_is_affine_with_slope_s():
    p0, p5, p10 = tradeoff_curve(**LORA_NQ, ratios=[0.0, 0.5, 1.0])
    assert p5.c - p0.c == pytest.approx(p10.c - p5.c)
    assert p10.c - p0.c == pytest.approx(LORA_NQ["s"])


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_identity_binning():
    spec = HistogramSpec(bin_edges=(0.0, 1.0, 2.0), value_transform="identity")
    result = histogram([0.1, 0.2, 1.5], spec)
    assert result.counts == (2, 1)
    assert result.out_of_range == 0


def test_histogram_empty_values():
    spec = HistogramSpec(bin_edges=(0.0, 1.0, 2.0), value_transform="identity")
    result = histogram([], spec)
    assert result.counts == (0, 0)
    assert result.out_of_range == 0


def test_histogram_interior_edge_goes_right():
    spec = HistogramSpec(bin_edges=(0.0, 1.0, 2.0), value_transform="identity")
    assert histogram([1.0], spec).counts == (0, 1)


def test_histogram_last_edge_is_closed():
    spec = HistogramSpec(bin_edges=(0.0, 1.0, 2.0), value_transform="identity")
    assert histogram([2.0], spec).counts == (0, 1)


def test_histogram_out_of_range_bucket():
    spec = HistogramSpec(bin_edges=(0.0, 1.0, 2.0), value_transform="identity")
    result = histogram([-5.0, 0.5, 9.0], spec)
    assert result.counts == (1, 0)
    assert result.out_of_range == 2


def test_histogram_log_transform_bins_by_ln():
    spec = HistogramSpec(bin_edges=(0.0, 1.0, 2.0), value_transform="log")
    result = histogram([math.e ** 0.5, math.e ** 1.5], spec)
    assert result.counts == (1, 1)


def test_histogram_log_rejects_non_positive_values():
    spec = HistogramSpec(bin_edges=(0.0, 1.0), value_transform="log")
    with pytest.raises(DataError, match="item 1"):
        histogram([1.0, 0.0], spec)


def test_histogram_spec_validates_edges():
    with pytest.raises(DataError):
        HistogramSpec(bin_edges=(1.0,), value_transform="identity")
    with pytest.raises(DataError):
        HistogramSpec(bin_edges=(1.0, 1.0), value_transform="identity")
    with pytest.raises(DataError):
        HistogramSpec(bin_edges=(0.0, math.nan, 2.0), value_transform="identity")
    HistogramSpec(bin_edges=(-math.inf, 0.0, math.inf), value_transform="identity")


@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), max_size=80),
    st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=2, max_size=8,
             unique=True),
)
@settings(max_examples=150, deadline=None)
def test_histogram_conserves_items(values, edges):
    spec = HistogramSpec(bin_edges=tuple(sorted(edges)), value_transform="identity")
    result = histogram(values, spec)
    assert result.total == len(values)


@given(
    st.lists(
        st.floats(min_value=-20, max_value=20) | st.sampled_from([-math.inf, math.inf]),
        min_size=2, max_size=8, unique=True,
    ),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_histogram_matches_numpy(edges, data):
    edges = tuple(sorted(edges))
    values = data.draw(
        st.lists(st.sampled_from(edges) | st.floats(min_value=-30, max_value=30)
                 | st.sampled_from([math.nan, -math.inf, math.inf]), max_size=60)
    )
    result = histogram(values, HistogramSpec(bin_edges=edges, value_transform="identity"))
    assert (result.counts, result.out_of_range) == numpy_histogram(values, edges)


# ---------------------------------------------------------------------------
# emitted tables
# ---------------------------------------------------------------------------


def read_table(path) -> list[dict]:
    """Read back an emitted table, skipping '#' comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        data_lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(data_lines))


def test_tradeoff_table_round_trip(tmp_path):
    points = tradeoff_curve(**LORA_NQ, ratios=[0.0, 0.5, 1.0])
    path = write_tradeoff_table(points, tmp_path / "tradeoff.csv", comments=["hash=abc"])
    rows = read_table(path)
    assert [float(r["ratio"]) for r in rows] == [0.0, 0.5, 1.0]
    assert float(rows[1]["c"]) == pytest.approx(52.3)
    assert path.read_text().startswith("# hash=abc\n")


def test_histogram_table_is_per_class(tmp_path):
    spec = HistogramSpec(bin_edges=(0.0, 1.0, 2.0), value_transform="identity")
    results = {
        "C": histogram([0.5], spec),
        "H": histogram([1.5, 9.0], spec),
    }
    path = write_histogram_table(results, tmp_path / "hist.csv")
    rows = read_table(path)
    h_rows = [r for r in rows if r["class"] == "H"]
    assert [r["count"] for r in h_rows] == ["0", "1", "1"]
    assert h_rows[-1]["bin_lo"] == "out_of_range"
