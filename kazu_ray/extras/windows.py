"""Stream-shaped operators over the ordered ``events`` log.

Ray Data has no event-time windows; per the engine's streaming story
(SURVEY.md §2i, ray guide): partition by key, sort by ts within the
group, and compute windows/joins with vectorized pandas inside
``groupby(key).map_groups``.  Ordering assumption: events for one
``user_id`` are processed as one sorted group; correctness does not
depend on inter-key order.

Both operators have exact DuckDB oracles (session via window functions,
as-of via ASOF JOIN).
"""

from __future__ import annotations

import pandas as pd

from ..exchange import hash_reduce

SESSION_GAP_US = 30 * 60 * 1_000_000  # 30 minutes


def sessionize_events(ds, bucket_us: int | None = None):
    """Sessionization over an events Dataset (user_id, ts, value):
    per user, events <=30min apart share a session; emits per-session
    (user_id, session_start_us, n_events, sum_value).

    ``bucket_us=None``: one group per user (simple path — a whale user's
    whole history lands on one worker).

    ``bucket_us=N``: whale-safe two-phase variant. Phase 1 groups by
    (user, ts//N) so no group exceeds one user-bucket of events and
    emits within-bucket partial sessions (start, end, count, raw sum);
    phase 2 merges adjacent partials per user when the true boundary
    gap <= SESSION_GAP_US — the phase-2 group size is the user's
    SESSION-SUMMARY count (bounded by time-range/bucket), not their
    event count.  Exactly equivalent to the simple path: within-bucket
    chains already satisfy the gap property, and cross-bucket merges
    test the genuine last-event/first-event gap.
    """
    from ..functions.rounding import round_half_away

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts")
        us = g["ts"].astype("int64")
        new_session = (us.diff().fillna(SESSION_GAP_US + 1) > SESSION_GAP_US).cumsum()
        out = (
            g.assign(_us=us, _sid=new_session)
            .groupby("_sid")
            .agg(
                user_id=("user_id", "first"),
                session_start_us=("_us", "min"),
                session_end_us=("_us", "max"),
                n_events=("ts", "size"),
                sum_value=("value", "sum"),
            )
            .reset_index(drop=True)
        )
        out["n_events"] = out["n_events"].astype("int64")
        return out

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["session_end_us"])
        df["sum_value"] = round_half_away(df["sum_value"].to_numpy(), 3)
        return df

    if bucket_us is None:
        grouped = ds.groupby("user_id").map_groups(
            lambda g: finalize(sessionize(g)), batch_format="pandas"
        )
        return grouped.sort(["user_id", "session_start_us"])

    def add_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["_bucket"] = g["ts"].astype("int64") // bucket_us
        return g

    def merge_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("session_start_us").reset_index(drop=True)
        starts = g["session_start_us"].to_numpy()
        ends = g["session_end_us"].to_numpy()
        merged_rows = []
        cur = None
        for i in range(len(g)):
            if cur is not None and starts[i] - cur["session_end_us"] <= SESSION_GAP_US:
                cur["session_end_us"] = max(cur["session_end_us"], int(ends[i]))
                cur["n_events"] += int(g["n_events"].iloc[i])
                cur["sum_value"] += float(g["sum_value"].iloc[i])
            else:
                if cur is not None:
                    merged_rows.append(cur)
                cur = {
                    "user_id": g["user_id"].iloc[0],
                    "session_start_us": int(starts[i]),
                    "session_end_us": int(ends[i]),
                    "n_events": int(g["n_events"].iloc[i]),
                    "sum_value": float(g["sum_value"].iloc[i]),
                }
        if cur is not None:
            merged_rows.append(cur)
        return finalize(pd.DataFrame(merged_rows))

    partials = (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby(["user_id", "_bucket"])
        .map_groups(lambda g: sessionize(g.drop(columns=["_bucket"])), batch_format="pandas")
    )
    return (
        partials.groupby("user_id")
        .map_groups(merge_partials, batch_format="pandas")
        .sort(["user_id", "session_start_us"])
    )


# below this input size the one-group-per-user simple path wins (no
# second shuffle); above it a whale user's history could overwhelm one
# worker, so the bucketed two-phase path becomes the default — same
# small-input fast-path pattern as connected_components' driver_threshold
SIMPLE_PATH_MAX_BYTES = 256 * 1024 * 1024


def _auto_bucket_us(path: str) -> int:
    """Derive a whale-safe bucket width from the data's time range using
    parquet row-group stats only (no data read): ~1024 buckets across
    the corpus time range, never narrower than the session gap (a
    narrower bucket only adds merge work, it can't split a session)."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    lo, hi = None, None
    ts_idx = md.schema.to_arrow_schema().get_field_index("ts")
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(ts_idx).statistics
        if st is None or not st.has_min_max:
            return SESSION_GAP_US * 8  # stats unavailable: safe fixed width
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    span = hi - lo
    if hasattr(span, "total_seconds"):  # timestamp stats come back as datetimes
        span = int(span.total_seconds() * 1_000_000)
    return max(SESSION_GAP_US, int(span) // 1024 or SESSION_GAP_US)


def q_events_sessions(sf_dir: str, bucket_us: int | None | str = "auto"):
    """Sessionization query over events.parquet (see sessionize_events).

    Default ``bucket_us="auto"``: small inputs take the simple
    one-group-per-user path; past SIMPLE_PATH_MAX_BYTES the bucket width
    is derived from the parquet ts stats and the whale-safe two-phase
    path (proven oracle-identical) becomes the default."""
    import ray.data as rd

    from ..context import input_bytes

    path = f"{sf_dir}/events.parquet"
    if bucket_us == "auto":
        bucket_us = None if input_bytes(path) <= SIMPLE_PATH_MAX_BYTES else _auto_bucket_us(path)
    ds = rd.read_parquet(path, columns=["user_id", "ts", "value"])
    return sessionize_events(ds, bucket_us=bucket_us)


def q_asof_join(sf_dir: str):
    """As-of join: each 'purchase' event matched to the user's most
    recent prior-or-equal 'view' event.

    User count grows with the corpus, so one Ray group per user would
    degenerate to millions of tiny tasks; users hash into ~P coarse
    partitions and each partition runs ONE ``pd.merge_asof(by=user_id)``
    (vectorized grouped as-of merge) over its users."""
    import pyarrow as pa
    import ray.data as rd

    from ..context import shuffle_partitions

    nparts = shuffle_partitions()

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type", "event_id"]
    )

    def asof(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        purchases = g[g["event_type"] == "purchase"].sort_values("ts")
        views = g[g["event_type"] == "view"].sort_values("ts")
        if purchases.empty:
            return pd.DataFrame(
                {"purchase_id": pd.Series(dtype="int64"),
                 "user_id": pd.Series(dtype="int64"),
                 "view_id": pd.Series(dtype="int64")}
            )
        merged = pd.merge_asof(
            purchases[["ts", "event_id", "user_id"]],
            views[["ts", "event_id", "user_id"]].rename(
                columns={"event_id": "view_event"}
            ),
            on="ts",
            by="user_id",
            direction="backward",
        )
        return pd.DataFrame(
            {
                "purchase_id": merged["event_id"].astype("int64"),
                "user_id": merged["user_id"].astype("int64"),
                "view_id": merged["view_event"].astype("Int64").fillna(-1).astype("int64"),
            }
        )

    return hash_reduce(ds, ["user_id"], asof, nparts).sort(["user_id", "purchase_id"])


def q_range_join(sf_dir: str, window_s: int = 60):
    """Range (interval) join: for each 'error' event, count ALL events
    of any user within ±window_s seconds — the time-proximity join the
    as-of join cannot express (matches are a range, not a single prior
    row), and a cross-user one, so the per-user partitioning trick does
    not apply.

    Ray-native interval-bucketing: bucket width = 2×window; every probe
    (error) lives in its own bucket, every build row is replicated to
    its bucket ±1, so a probe's full ±window range is guaranteed present
    in its bucket's group.  One groupby(bucket) exchange (3× build
    amplification, constant), then a vectorized searchsorted count per
    partition — no quadratic pairing anywhere.  At 100 TB the bucket
    key is time, so partitions are naturally balanced unless event time
    itself is skewed; the bucket width parameter is the knob (same
    partitioning-assumption note as the sessionizer).

    Oracle: DuckDB interval self-join (IEJoin), LEFT JOIN so errors with
    no neighbours keep count 0.
    """
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    w_us = window_s * 1_000_000
    bucket_us = 2 * w_us

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type"]
    )

    # one Ray group per time bucket would mean a per-120-seconds task —
    # pathological at long time ranges: the hash(bucket) exchange hands
    # each reducer many buckets, processed vectorized
    from ..context import shuffle_partitions

    nparts = shuffle_partitions()

    def emit(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        etype = batch.column("event_type").to_pylist()
        b = ts // bucket_us
        out_bucket, out_role, out_eid, out_ts = [], [], [], []
        is_probe = np.array([t == "error" for t in etype])
        # probes: own bucket only
        out_bucket.extend(b[is_probe].tolist())
        out_role.extend([1] * int(is_probe.sum()))
        out_eid.extend(eid[is_probe].tolist())
        out_ts.extend(ts[is_probe].tolist())
        # builds (all events): replicated to bucket -1/0/+1
        for d in (-1, 0, 1):
            out_bucket.extend((b + d).tolist())
            out_role.extend([0] * len(b))
            out_eid.extend(eid.tolist())
            out_ts.extend(ts.tolist())
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(out_bucket, type=pa.int64()),
                "role": pa.array(out_role, type=pa.int8()),
                "event_id": pa.array(out_eid, type=pa.int64()),
                "ts_us": pa.array(out_ts, type=pa.int64()),
            }
        )

    def count_in_partition(t: pa.Table) -> pd.DataFrame:
        out_eid, out_n = [], []
        for _, sub in t.to_pandas().groupby("bucket", sort=False):
            probes = sub[sub["role"] == 1]
            if probes.empty:
                continue
            builds = np.sort(sub.loc[sub["role"] == 0, "ts_us"].to_numpy())
            t = probes["ts_us"].to_numpy()
            n = (
                np.searchsorted(builds, t + w_us, side="right")
                - np.searchsorted(builds, t - w_us, side="left")
                - 1  # builds include the probe event itself
            )
            out_eid.append(probes["event_id"].to_numpy())
            out_n.append(n)
        if not out_eid:
            return pd.DataFrame(
                {"event_id": pd.Series(dtype="int64"),
                 "n_nearby": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(
            {
                "event_id": np.concatenate(out_eid),
                "n_nearby": np.concatenate(out_n).astype("int64"),
            }
        )

    return hash_reduce(
        ds.map_batches(emit, batch_format="pyarrow"), ["bucket"], count_in_partition, nparts
    ).sort("event_id")


def q_events_sliding(sf_dir: str, window_hours: int = 3):
    """Sliding windowed aggregate: per event_type and hour, counts and
    value sums over the trailing ``window_hours`` (gap-aware: the frame
    is a TIME range, not a row count, so missing hours don't shift it).

    Ray-native: one tumbling groupby((event_type, hour)) exchange (the
    same partial-aggregation shape as events_hourly), then the window
    pass runs on the HOURLY table — bounded by distinct (type, hour)
    pairs, i.e. time-bounded, not corpus-bounded, so a single-partition
    vectorized prefix-sum + searchsorted pass is scale-safe at 100 TB
    (the same bounded-side argument as the nodes/ontology reduces).

    Parity note: sliding sums are computed from the ROUNDED hourly sums
    on both engines so float accumulation order cannot diverge."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..functions.rounding import round_half_away

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hour = pc.divide(pc.cast(t["ts"], pa.int64()), pa.scalar(3_600_000_000))
        return t.append_column("hour_bucket", hour).drop_columns(["ts"])

    hourly = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "hour_bucket"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
    )

    def window(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for etype, g in df.groupby("event_type", sort=True):
            g = g.sort_values("hour_bucket").reset_index(drop=True)
            hours = g["hour_bucket"].to_numpy()
            n = g["n_events"].to_numpy()
            v = round_half_away(g["sum_value"].to_numpy(), 3)
            cn = np.concatenate([[0], np.cumsum(n)])
            cv = np.concatenate([[0.0], np.cumsum(v)])
            lo = np.searchsorted(hours, hours - (window_hours - 1), side="left")
            hi = np.arange(1, len(hours) + 1)
            out.append(
                pd.DataFrame(
                    {
                        "event_type": etype,
                        "hour_bucket": hours,
                        "n_events_win": (cn[hi] - cn[lo]).astype("int64"),
                        "sum_value_win": round_half_away(cv[hi] - cv[lo], 3),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    # the hourly table is time-bounded (distinct hours), so one partition
    return (
        hourly.repartition(1)
        .map_batches(window, batch_format="pandas", batch_size=None)
        .sort(["event_type", "hour_bucket"])
    )


def events_sliding_oracle_sql(window_hours: int = 3) -> str:
    return f"""
        WITH hourly AS (
          SELECT event_type,
                 CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour_bucket,
                 COUNT(*) AS n,
                 ROUND(SUM(value), 3) AS v
          FROM events GROUP BY 1, 2
        )
        SELECT event_type, hour_bucket,
               CAST(SUM(n) OVER w AS BIGINT) AS n_events_win,
               ROUND(SUM(v) OVER w, 3) AS sum_value_win
        FROM hourly
        WINDOW w AS (
          PARTITION BY event_type ORDER BY hour_bucket
          RANGE BETWEEN {window_hours - 1} PRECEDING AND CURRENT ROW
        )
        ORDER BY event_type, hour_bucket
    """


# rolling anomaly detection: trailing-window z-test parameters
ANOM_WINDOW = 20  # prior events in the frame (ROWS 20 PRECEDING .. 1 PRECEDING)
ANOM_K = 3  # flag |value - mean| > K * sample std
ANOM_MIN_PRIOR = 8  # need this much history before flagging


def q_events_anomaly(sf_dir: str):
    """Per-user rolling z-score anomaly flags over the event stream:
    an event is anomalous when its value deviates from the trailing
    ANOM_WINDOW events' mean by more than ANOM_K sample standard
    deviations (with at least ANOM_MIN_PRIOR prior events).

    EXACT cross-engine booleans: values are 2dp-exact, so they scale to
    int64 and the z-test becomes the pure INTEGER inequality

        (n*v - s)^2 * (n-1)  >  K^2 * n * (n*ssq - s^2)

    (s, ssq = window sum / sum of squares) — no float accumulation on
    either engine, hence no last-ulp boundary flips; the oracle replays
    it with BIGINT window sums.  Operand bounds are asserted against
    int64 (|iv| <= 2^20 covers values to ~10^4 at 2dp with W=20).

    Shape: one groupby(user_id) exchange, then a vectorised prefix-sum
    window pass per group — the same per-key ordering contract as
    events_sessions (hot users are bounded by real-world activity; the
    sessionizer's bucket-salting upgrade applies verbatim if not)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )
    W, K, M = ANOM_WINDOW, ANOM_K, ANOM_MIN_PRIOR

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        iv = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        assert np.abs(iv).max(initial=0) < (1 << 20), "scale exceeds int64 proof"
        cs = np.concatenate([[0], np.cumsum(iv)])
        cs2 = np.concatenate([[0], np.cumsum(iv * iv)])
        idx = np.arange(len(iv))
        n = np.minimum(idx, W)
        start = idx - n
        s = cs[idx] - cs[start]
        ssq = cs2[idx] - cs2[start]
        var_num = n * ssq - s * s
        lhs = (n * iv - s) ** 2 * (n - 1)
        rhs = (K * K) * n * var_num
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "n_prior": n,
                "is_anomaly": (n >= M) & (var_num > 0) & (lhs > rhs),
            }
        )

    return (
        ds.groupby("user_id")
        .map_groups(flag, batch_format="pandas")
        .sort("event_id")
    )


def events_anomaly_oracle_sql() -> str:
    return f"""
        WITH e AS (
          SELECT event_id, user_id, ts,
                 CAST(ROUND(value * 100) AS BIGINT) AS iv
          FROM events
        ),
        w AS (
          SELECT event_id, user_id, iv,
                 COALESCE(SUM(iv) OVER win, 0) AS s,
                 COALESCE(SUM(iv * iv) OVER win, 0) AS ssq,
                 COUNT(*) OVER win AS n
          FROM e
          WINDOW win AS (
            PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN {ANOM_WINDOW} PRECEDING AND 1 PRECEDING
          )
        )
        SELECT event_id, user_id, CAST(n AS BIGINT) AS n_prior,
               (n >= {ANOM_MIN_PRIOR}
                AND (n * ssq - s * s) > 0
                AND (n * iv - s) * (n * iv - s) * (n - 1)
                    > {ANOM_K * ANOM_K} * n * (n * ssq - s * s)
               ) AS is_anomaly
        FROM w
        ORDER BY event_id
    """
