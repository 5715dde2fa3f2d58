"""Property tests for the packed-key grouping kernel.

Every grouping site (switch reduce/distinct, analytics, the stream
processor, register slot placement, flow aggregation) runs through
:func:`repro.exec.group_rows`. The reference is the void-row
``np.unique(axis=0)`` it replaced, with first-occurrence order re-derived
from its ``return_index``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exec import ColumnarState, group_first_occurrence, group_keys, group_rows

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def reference(columns, first_occurrence=False):
    stacked = np.stack(columns, axis=1)
    _, first, inverse = np.unique(
        stacked, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.ravel()
    if not first_occurrence:
        return first, inverse
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def assert_matches_reference(columns):
    for first_occurrence in (False, True):
        first, inverse = group_rows(columns, first_occurrence=first_occurrence)
        ref_first, ref_inverse = reference(columns, first_occurrence)
        np.testing.assert_array_equal(first, ref_first)
        np.testing.assert_array_equal(inverse, ref_inverse)
        assert first.dtype == np.int64 and inverse.dtype == np.int64
    first, _ = group_rows(columns, first_occurrence=True)
    assert (np.diff(first) > 0).all()


def pool_for(kind: str, draw) -> list[int]:
    """A few distinct values of one column shape, extremes included."""
    if kind == "vocab":  # vocab ids, -1 = absent
        return draw(st.lists(st.integers(-1, 20), min_size=1, max_size=6))
    if kind == "ip":
        return draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    if kind == "span63":  # (max - min).bit_length() == 63
        lo = draw(st.integers(INT64_MIN, INT64_MAX - (2**63 - 1)))
        hi = lo + draw(st.integers(2**62, 2**63 - 1))
        inner = draw(st.lists(st.integers(lo, hi), max_size=4))
        return [lo, hi, *inner]
    if kind == "span64":  # (max - min).bit_length() == 64
        lo = draw(st.integers(INT64_MIN, INT64_MAX - 2**63))
        hi = draw(st.integers(lo + 2**63, INT64_MAX))
        inner = draw(st.lists(st.integers(lo, hi), max_size=4))
        return [lo, hi, *inner]
    return draw(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=6))


KINDS = ("vocab", "ip", "span63", "span64", "any")


@st.composite
def key_columns(draw):
    n_cols = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 60))
    columns = []
    for _ in range(n_cols):
        pool = pool_for(draw(st.sampled_from(KINDS)), draw)
        picks = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        columns.append(np.array(picks, dtype=np.int64))
    return columns


class TestGroupRows:
    @settings(max_examples=300, deadline=None)
    @given(key_columns())
    def test_matches_void_row_unique(self, columns):
        assert_matches_reference(columns)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 40), st.integers(INT64_MIN, INT64_MAX))
    def test_all_equal_rows_form_one_group(self, n_cols, n_rows, value):
        columns = [np.full(n_rows, value, dtype=np.int64) for _ in range(n_cols)]
        first, inverse = group_rows(columns)
        assert first.tolist() == [0]
        assert inverse.tolist() == [0] * n_rows
        assert_matches_reference(columns)

    def test_zero_and_one_rows(self):
        for n_cols in (1, 3):
            empty = [np.empty(0, dtype=np.int64)] * n_cols
            for first_occurrence in (False, True):
                first, inverse = group_rows(empty, first_occurrence=first_occurrence)
                assert len(first) == 0 and len(inverse) == 0
            assert_matches_reference([np.array([7], dtype=np.int64)] * n_cols)

    def test_exact_63_and_64_bit_spans(self):
        span63 = np.array([0, 2**63 - 1, 5, 0, 2**63 - 1], dtype=np.int64)
        span64 = np.array([INT64_MIN, INT64_MAX, -1, INT64_MIN, 0], dtype=np.int64)
        bit1 = np.array([1, 0, 1, 1, 0], dtype=np.int64)
        for columns in (
            [span63],
            [span64],
            [span63, bit1],  # 64 bits: packs exactly
            [bit1, span63, bit1],  # 65 bits: dense prefix
            [span64, span64],  # both columns too wide: dense column too
            [bit1, span64, span63, bit1],
        ):
            assert_matches_reference(columns)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_keys_wider_than_64_bits(self, data):
        """(sIP, dIP, ...) keys: the packed prefix is densified mid-way."""
        draw = data.draw
        n_rows = draw(st.integers(1, 80))
        ips = st.lists(
            st.integers(0, 2**32 - 1), min_size=n_rows, max_size=n_rows
        )
        ports = st.lists(st.integers(0, 2**16 - 1), min_size=n_rows, max_size=n_rows)
        sip = np.array(draw(ips), dtype=np.int64)
        dip = np.array(draw(ips), dtype=np.int64)
        dport = np.array(draw(ports), dtype=np.int64)
        # Repeat some rows so groups have several members.
        idx = np.array(
            draw(
                st.lists(st.integers(0, n_rows - 1), min_size=n_rows, max_size=2 * n_rows)
            )
        )
        assert_matches_reference([sip[idx], dip[idx], dport[idx]])
        assert_matches_reference([sip[idx], dip[idx], sip[idx], dip[idx]])


def old_group_keys(state, keys):
    stacked = np.stack([state.columns[k].astype(np.int64) for k in keys], axis=1)
    unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
    cols = {k: unique[:, i].astype(state.columns[k].dtype) for i, k in enumerate(keys)}
    return cols, inverse.ravel()


def old_group_first_occurrence(state, keys):
    stacked = np.stack([state.columns[k].astype(np.int64) for k in keys], axis=1)
    unique, first, inverse = np.unique(
        stacked, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return unique[order], first[order], rank[inverse.ravel()]


@st.composite
def states(draw):
    n_rows = draw(st.integers(0, 40))
    ids = st.lists(st.integers(-1, 5), min_size=n_rows, max_size=n_rows)
    floats = st.lists(
        st.sampled_from([-2.5, -1.0, -0.5, 0.0, 0.25, 0.75, 1.5, 3.0, 1e6 + 0.5]),
        min_size=n_rows,
        max_size=n_rows,
    )
    ips = st.lists(st.integers(0, 3), min_size=n_rows, max_size=n_rows)
    columns = {
        "qname": np.array(draw(ids), dtype=np.int64),
        "ts": np.array(draw(floats), dtype=np.float64),
        "sip": np.array([0x0A000000 + v for v in draw(ips)], dtype=np.uint32),
    }
    return ColumnarState(columns=columns, vocabs={"qname": list("abcdef")})


KEY_SETS = (("qname",), ("ts",), ("sip", "ts"), ("ts", "qname", "sip"))


class TestStateWrappers:
    @settings(max_examples=100, deadline=None)
    @given(states(), st.sampled_from(KEY_SETS))
    def test_group_keys_matches_void_row_unique(self, state, keys):
        unique_cols, inverse = group_keys(state, keys)
        if state.n_rows == 0:
            assert len(inverse) == 0
            assert all(len(unique_cols[k]) == 0 for k in keys)
            return
        ref_cols, ref_inverse = old_group_keys(state, keys)
        np.testing.assert_array_equal(inverse, ref_inverse)
        for k in keys:
            # Float keys keep the int64-cast semantics: 1.5 groups as 1.0.
            assert unique_cols[k].dtype == state.columns[k].dtype
            np.testing.assert_array_equal(unique_cols[k], ref_cols[k])

    @settings(max_examples=100, deadline=None)
    @given(states(), st.sampled_from(KEY_SETS))
    def test_group_first_occurrence_matches_void_row_unique(self, state, keys):
        unique, first_rows, inverse = group_first_occurrence(state, keys)
        assert unique.shape == (len(first_rows), len(keys))
        assert unique.dtype == np.int64
        if state.n_rows == 0:
            assert len(first_rows) == 0 and len(inverse) == 0
            return
        ref = old_group_first_occurrence(state, keys)
        np.testing.assert_array_equal(unique, ref[0])
        np.testing.assert_array_equal(first_rows, ref[1])
        np.testing.assert_array_equal(inverse, ref[2])
        assert (np.diff(first_rows) > 0).all()
