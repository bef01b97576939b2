"""Constraint audit (extras/audit.py): exact SQL parity on the real
tables (also via test_oracle_parity), planted FK violations detected
with exact counts, and an empty parent table."""

import os
import tempfile

import duckdb
import pandas as pd
import pytest

from kazu_ray.extras.audit import (
    constraint_audit_oracle_sql,
    q_constraint_audit,
)

SF = "/root/testdata/sf0.001"
TABLES = ["nation", "customer", "orders", "lineitem", "events", "documents"]


def _oracle(sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con.execute(constraint_audit_oracle_sql()).df()


def test_oracle_parity_and_clean_fks(ray_session):
    exp = _oracle(SF)
    got = q_constraint_audit(SF).to_pandas()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # the corpus FKs are clean; zero still proves the check ran
    fks = got[got["constraint_name"].str.startswith("fk_")]
    assert (fks["n_violations"] == 0).all() and (fks["n_rows"] > 0).all()


def test_planted_fk_violations_counted(ray_session):
    """Corrupt a copy of the corpus (drop half the customers, break
    three o_custkey values) — the audit must count exactly the planted
    violations."""
    with tempfile.TemporaryDirectory() as d:
        for t in TABLES:
            df = pd.read_parquet(f"{SF}/{t}.parquet")
            if t == "customer":
                df = df[df["c_custkey"] % 2 == 0]
            if t == "orders":
                df = df.copy()
                df.loc[df.index[:3], "o_custkey"] = -999
            df.to_parquet(os.path.join(d, f"{t}.parquet"))
        exp = _oracle(d)
        got = q_constraint_audit(d).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        viol = dict(
            zip(got["constraint_name"], got["n_violations"])
        )
        # odd custkeys vanished + 3 planted bad keys
        assert viol["fk_orders_custkey"] > 3


def test_empty_parent_table_counts_all_children(ray_session):
    """An empty parent snapshot (the catastrophic-ingest case the
    audit exists for) must report every child row as a violation; the
    anti-join's explicit schemas carry the empty side."""
    with tempfile.TemporaryDirectory() as d:
        for t in TABLES:
            df = pd.read_parquet(f"{SF}/{t}.parquet")
            if t == "nation":
                df = df.iloc[0:0]
            df.to_parquet(os.path.join(d, f"{t}.parquet"))
        exp = _oracle(d)
        got = q_constraint_audit(d).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        row = got[got["constraint_name"] == "fk_customer_nationkey"].iloc[0]
        assert row["n_violations"] == row["n_rows"] > 0
