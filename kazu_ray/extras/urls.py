"""URL canonicalization and per-domain capping — the web-crawl curation
staples (CCNet §2 dedupes by URL; RefinedWeb/C4 enforce per-site quotas
so one hot domain cannot dominate a training mix).

The synthetic documents table carries no URL column, so the queryable
surface derives a deterministic "messy" URL from (doc_id, source) —
mixed-case hosts, optional www./news. labels, utm_* tracking params,
fragments, trailing slashes — with the SAME arithmetic in the DuckDB
oracle, then canonicalizes it.  The canonicalizer itself is the
operator under test; the derivation just manufactures realistic mess
from real rows (no external data).

Canonicalization rules, applied in this exact order in BOTH engines:
  1. strip the fragment (``#...``)
  2. split scheme ``://`` host ``/`` path ``?`` query
  3. lowercase scheme and host; strip a leading ``www.`` host label
  4. drop ``utm_*`` tracking params, preserving other params' order
  5. strip trailing ``/`` from the path
  6. registered domain = last two host labels

Scale design: canonicalization is a zero-shuffle vectorized polars
stage (regex/string kernels, no Python per row).  The per-domain cap
uses the keep-first-K combiner: keeping the K smallest doc_ids per
domain is a selection where the global answer is contained in the
union of per-block answers, so each block reduces to at most
|domains in block| x K rows BEFORE the single groupby(domain) exchange —
a hot domain ships K rows per block, never its full row set, which
bounds skew by construction.

Reference seam: KAZU has no corpus-level curation operators (SURVEY
§2l); this module is part of the beyond-the-reference training-data
surface.
"""
from __future__ import annotations

import pyarrow as pa

DOMAIN_CAP = 40

CANONICAL_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("canonical_url", pa.string()),
        ("domain", pa.string()),
    ]
)


def _pl():
    import polars as pl

    return pl


def messy_url_expr():
    """Polars expression deriving the deterministic messy URL from
    (doc_id, source).  Mirrored token-for-token by _MESSY_URL_SQL."""
    pl = _pl()
    d = pl.col("doc_id")
    scheme = pl.when(d % 3 == 0).then(pl.lit("http")).otherwise(pl.lit("https"))
    www = pl.when(d % 2 == 0).then(pl.lit("www.")).otherwise(pl.lit(""))
    sub = pl.when(d % 9 == 0).then(pl.lit("news.")).otherwise(pl.lit(""))
    base = (
        pl.col("source") + pl.lit(".site") + (d % 7).cast(pl.String) + pl.lit(".com")
    )
    host = www + sub + base
    host = pl.when(d % 7 == 0).then(host.str.to_uppercase()).otherwise(host)
    path = pl.lit("/articles/item-") + (d % 311).cast(pl.String)
    slash = pl.when(d % 5 == 0).then(pl.lit("/")).otherwise(pl.lit(""))
    query = (
        pl.when(d % 4 == 0)
        .then(
            pl.lit("?utm_source=feed&ref=")
            + (d % 13).cast(pl.String)
            + pl.lit("&utm_campaign=x")
        )
        .when(d % 4 == 1)
        .then(pl.lit("?ref=") + (d % 13).cast(pl.String))
        .otherwise(pl.lit(""))
    )
    frag = (
        pl.when(d % 6 == 0)
        .then(pl.lit("#sec-") + (d % 3).cast(pl.String))
        .otherwise(pl.lit(""))
    )
    return scheme + pl.lit("://") + host + path + slash + query + frag


# the SQL twin of messy_url_expr — same rule order, same casts
_MESSY_URL_SQL = """
    (CASE WHEN doc_id % 3 = 0 THEN 'http' ELSE 'https' END)
    || '://'
    || (CASE WHEN doc_id % 7 = 0 THEN upper(host0) ELSE host0 END)
    || '/articles/item-' || (doc_id % 311)::VARCHAR
    || (CASE WHEN doc_id % 5 = 0 THEN '/' ELSE '' END)
    || (CASE WHEN doc_id % 4 = 0
             THEN '?utm_source=feed&ref=' || (doc_id % 13)::VARCHAR
                  || '&utm_campaign=x'
             WHEN doc_id % 4 = 1 THEN '?ref=' || (doc_id % 13)::VARCHAR
             ELSE '' END)
    || (CASE WHEN doc_id % 6 = 0 THEN '#sec-' || (doc_id % 3)::VARCHAR
             ELSE '' END)
"""

_HOST0_SQL = """
    (CASE WHEN doc_id % 2 = 0 THEN 'www.' ELSE '' END)
    || (CASE WHEN doc_id % 9 = 0 THEN 'news.' ELSE '' END)
    || source || '.site' || (doc_id % 7)::VARCHAR || '.com'
"""


def canonicalize_batch(batch: pa.Table) -> pa.Table:
    """doc_id/url -> canonical_url + registered domain.  Pure
    vectorized polars string kernels; zero shuffle, zero Python rows."""
    pl = _pl()
    df = pl.from_arrow(batch)
    df = df.with_columns(nofrag=pl.col("url").str.replace(r"#.*$", ""))
    df = df.with_columns(
        scheme=pl.col("nofrag").str.extract(r"^([a-zA-Z]+)://", 1).str.to_lowercase(),
        rest=pl.col("nofrag").str.replace(r"^[a-zA-Z]+://", ""),
    )
    df = df.with_columns(
        host=pl.col("rest").str.extract(r"^([^/]+)", 1).str.to_lowercase(),
        path_q=pl.col("rest").str.replace(r"^[^/]+", ""),
    )
    df = df.with_columns(
        host=pl.col("host").str.replace(r"^www\.", ""),
        path=pl.col("path_q").str.extract(r"^([^?]*)", 1),
        query=pl.col("path_q").str.extract(r"\?(.*)$", 1).fill_null(""),
    )
    df = df.with_columns(
        path=pl.col("path").str.replace(r"/+$", ""),
        query=pl.col("query")
        .str.replace_all(r"utm_[a-z]+=[^&]*&?", "")
        .str.strip_chars_end("&"),
    )
    df = df.with_columns(
        canonical_url=pl.col("scheme")
        + pl.lit("://")
        + pl.col("host")
        + pl.col("path")
        + pl.when(pl.col("query") != "")
        .then(pl.lit("?") + pl.col("query"))
        .otherwise(pl.lit("")),
        domain=pl.col("host").str.extract(r"([^.]+\.[^.]+)$", 1),
    )
    return (
        df.select("doc_id", "url", "canonical_url", "domain")
        .to_arrow()
        .cast(CANONICAL_SCHEMA)
    )


# SQL twin of canonicalize_batch over a `urls(doc_id, url)` CTE —
# identical rule order (fragment, split, lowercase+www, utm strip,
# trailing slash, last-two-labels domain)
_CANON_SQL = """
    parts AS (
      SELECT doc_id, url,
             regexp_replace(url, '#.*$', '') AS nofrag
      FROM urls
    ),
    split1 AS (
      SELECT doc_id, url,
             lower(split_part(nofrag, '://', 1)) AS scheme,
             split_part(nofrag, '://', 2) AS rest
      FROM parts
    ),
    split2 AS (
      SELECT doc_id, url, scheme,
             regexp_replace(lower(split_part(rest, '/', 1)),
                            '^www\\.', '') AS host,
             substring(rest, length(split_part(rest, '/', 1)) + 1)
               AS path_q
      FROM split1
    ),
    split3 AS (
      SELECT doc_id, url, scheme, host,
             regexp_replace(split_part(path_q, '?', 2),
                            'utm_[a-z]+=[^&]*&?', '', 'g') AS q_raw,
             regexp_replace(split_part(path_q, '?', 1),
                            '/+$', '') AS path
      FROM split2
    ),
    canon AS (
      SELECT doc_id, url,
             scheme || '://' || host || path
             || (CASE WHEN rtrim(q_raw, '&') <> ''
                      THEN '?' || rtrim(q_raw, '&') ELSE '' END)
               AS canonical_url,
             regexp_extract(host, '([^.]+\\.[^.]+)$', 1) AS domain
      FROM split3
    )
"""

_URLS_CTE = f"""
    hosts AS (
      SELECT doc_id, {_HOST0_SQL} AS host0, source FROM documents
    ),
    urls AS (
      SELECT doc_id, {_MESSY_URL_SQL} AS url FROM hosts
    )
"""


def q_url_canonical(sf_dir: str):
    """Canonical URL + registered domain per document, exact string
    parity with the SQL twin."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def derive(batch: pa.Table) -> pa.Table:
        pl = _pl()
        df = pl.from_arrow(batch).with_columns(url=messy_url_expr())
        return canonicalize_batch(
            df.select("doc_id", "url").to_arrow()
        )

    return ds.map_batches(derive, batch_format="pyarrow").sort("doc_id")


def url_canonical_oracle_sql() -> str:
    return f"""
    WITH {_URLS_CTE}, {_CANON_SQL}
    SELECT doc_id, url, canonical_url, domain
    FROM canon ORDER BY doc_id
    """


def q_domain_cap(sf_dir: str, cap: int = DOMAIN_CAP):
    """Per-domain document quota: keep the first `cap` doc_ids of each
    registered domain (RefinedWeb-style per-site cap).

    Scale design: keep-first-K is a per-block combiner (global first-K
    is a subset of the union of per-block first-Ks), so each block
    ships at most |domains| x K rows into ONE crc32(domain)
    exchange; the in-partition merge re-heads.  A hot domain crosses
    the wire K rows per block, never its membership."""
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        pl = _pl()
        df = pl.from_arrow(batch).with_columns(url=messy_url_expr())
        canon = pl.from_arrow(
            canonicalize_batch(df.select("doc_id", "url").to_arrow())
        )
        kept = (
            canon.select("doc_id", "domain")
            .sort("doc_id")
            .group_by("domain", maintain_order=True)
            .head(cap)
            .select("doc_id", "domain")
        )
        return kept.to_arrow().cast(
            pa.schema([("doc_id", pa.int64()), ("domain", pa.string())])
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").head(cap)[["doc_id", "domain"]]

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("domain")
        .map_groups(merge, batch_format="pandas")
        .sort("doc_id")
    )


def domain_cap_oracle_sql(cap: int = DOMAIN_CAP) -> str:
    return f"""
    WITH {_URLS_CTE}, {_CANON_SQL}
    SELECT doc_id, domain FROM canon
    QUALIFY row_number() OVER (PARTITION BY domain ORDER BY doc_id) <= {cap}
    ORDER BY doc_id
    """


def q_url_hierarchy(sf_dir: str):
    """URL hierarchy rollup (crawl-stats primitive): document counts
    at EVERY host/path prefix level of the canonical URL
    (``host``, ``host/seg1``, ``host/seg1/seg2`` ...).

    Vectorised by LEVEL, not by row: after canonicalization the
    host+path splits once, then one polars slice/join expression per
    depth level emits that level's prefixes for all rows at once —
    per-doc prefixes are distinct by construction, so one
    groupby(prefix) count is the exact distinct-doc rollup.  Exchange
    rows are bounded by (distinct prefixes x blocks)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def prefixes(batch: pa.Table) -> pa.Table:
        pl = _pl()
        df = pl.from_arrow(batch).with_columns(url=messy_url_expr())
        canon = pl.from_arrow(
            canonicalize_batch(df.select("doc_id", "url").to_arrow())
        )
        parts = (
            canon.with_columns(
                hp=pl.col("canonical_url")
                .str.replace(r"^[a-z]+://", "")
                .str.replace(r"\?.*$", "")
            )
            .with_columns(parts=pl.col("hp").str.split("/"))
            .select("doc_id", "parts")
        )
        max_depth = int(parts.get_column("parts").list.len().max() or 0)
        levels = []
        for k in range(1, max_depth + 1):
            levels.append(
                parts.filter(pl.col("parts").list.len() >= k).select(
                    "doc_id",
                    prefix=pl.col("parts").list.slice(0, k).list.join("/"),
                )
            )
        out = pl.concat(levels) if levels else parts.select(
            "doc_id", prefix=pl.lit(None, dtype=pl.String)
        ).head(0)
        return out.to_arrow().cast(
            pa.schema([("doc_id", pa.int64()), ("prefix", pa.string())])
        )

    counts = (
        ds.map_batches(prefixes, batch_format="pyarrow")
        .groupby("prefix")
        .count()
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.rename_columns(["prefix", "n_docs"]).cast(
            pa.schema([("prefix", pa.string()), ("n_docs", pa.int64())])
        )

    return counts.map_batches(finish, batch_format="pyarrow").sort("prefix")


def url_hierarchy_oracle_sql() -> str:
    return f"""
    WITH {_URLS_CTE}, {_CANON_SQL},
    base AS (
      SELECT doc_id,
             regexp_replace(
                 regexp_replace(canonical_url, '^[a-z]+://', ''),
                 '\\?.*$', ''
             ) AS hp
      FROM canon
    ),
    segs AS (
      SELECT doc_id, string_split(hp, '/') AS parts FROM base
    ),
    ks AS (
      SELECT doc_id, parts,
             unnest(range(1, len(parts) + 1)) AS k
      FROM segs
    ),
    pref AS (
      SELECT doc_id, array_to_string(parts[1:k], '/') AS prefix FROM ks
    )
    SELECT prefix, CAST(COUNT(*) AS BIGINT) AS n_docs
    FROM pref GROUP BY prefix ORDER BY prefix
    """
