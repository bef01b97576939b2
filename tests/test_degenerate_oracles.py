"""Degenerate inputs give the DuckDB oracle's answer instead of raising:
a division by zero is NULL in the oracle, so the Python side returns
NULL (NaN) too."""

from datetime import datetime

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entrymod


def _events_one_variant():
    # every user_id is even: variant B has no users (1/n_b), and pooled
    # p is 1 (every first event converts)
    return "events", pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([datetime(2024, 1, d) for d in (1, 2, 1, 3)], pa.timestamp("us")),
        "user_id": pa.array([0, 0, 2, 4], pa.int64()),
        "event_type": ["purchase", "view", "purchase", "purchase"],
    })


def _docs_one_label():
    # all short and no doc_id is 0 mod 7 or 0 mod 13: both annotators
    # say "short" everywhere, so pe == 1 and kappa is 0 / 0
    return "documents", pa.table({
        "doc_id": pa.array([1, 2, 3, 5, 8], pa.int64()),
        "n_chars": pa.array([10, 50, 199, 0, 120], pa.int64()),
    })


@pytest.mark.parametrize("name, make_table", [
    ("ab_test", _events_one_variant),
    ("annotator_agreement", _docs_one_label),
])
def test_division_by_zero_matches_oracle(ray_session, tmp_path, name, make_table):
    table_name, table = make_table()
    path = str(tmp_path / f"{table_name}.parquet")
    pq.write_table(table, path)

    got = entrymod.queries()[name](str(tmp_path))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW {table_name} AS SELECT * FROM read_parquet('{path}')")
    exp = con.execute(entrymod.oracle_sql()[name]).fetchdf()

    got = pd.DataFrame(got)[exp.columns.tolist()].reset_index(drop=True)
    assert exp.isna().any().any()  # the oracle does answer NULL here
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, atol=1e-9)
