"""HTML main-content extraction (boilerplate removal) — the first step
of every web-crawl curation pipeline (C4 strips boilerplate before any
quality signal; RefinedWeb §3.2 runs trafilatura; CCNet assumes it).

The extractor is a Boilerpipe-style block scorer (Kohlschuetter et al.,
WSDM 2010): strip <script>/<style>/comments, segment the page into text
blocks at block-level tags, score each block by word count and link
density (anchor-text chars / text chars), keep content-dense blocks
(>= 8 words, density <= 1/3), and fuse a short low-link block into a
kept PREVIOUS block (continuation rule — catches a short tail
paragraph without promoting headers/taglines that precede content).
Everything is vectorized polars string kernels over exploded block
lists — zero Python per row, zero shuffle (each page lives in one row).

The synthetic documents table carries no HTML, so the queryable surface
renders a deterministic page around each document's text — head with
<title>/<style>/<script>, link-dense <nav>, <aside> related-story list,
the text as <p> paragraphs of 12 words, and a link-wrapped <footer> —
then extracts.  The oracle is text RECOVERY: a correct generic
extractor must return exactly the original document text
(``SELECT doc_id, text AS main_text FROM documents``), so the oracle
does not encode the extraction rules at all — any scoring mistake
(dropped tail paragraph, kept nav/footer/title) breaks the hash.
Generality beyond the generator's page shape is pinned by handwritten
realistic fixtures in tests/test_html_extract.py (entities, nested
inline tags, attribute-heavy markup, uppercase tags).

Scale design: render+extract is one map_batches stage; the only wide
operation is the final doc_id sort for the oracle compare.  The
outlink surface (q_html_links) dedups (doc_id, href) pairs in-block
(pages are never split across rows, so in-block distinct is globally
distinct) before ONE small groupby on href — the link-graph-construction
combiner pattern.

Reference seam: KAZU ingests clean text and has no web-curation
operators (SURVEY §2l); this module is part of the
beyond-the-reference training-data surface, alongside extras/urls.py.
"""
from __future__ import annotations

import pyarrow as pa

MIN_CORE_WORDS = 8
MAX_CORE_LINK_DENSITY = 1.0 / 3.0
MAX_FUSE_LINK_DENSITY = 0.10

EXTRACT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("main_text", pa.string())]
)
LINKS_SCHEMA = pa.schema([("href", pa.string()), ("n_docs", pa.int64())])

# block-level elements that terminate a text block (open or close tag)
_BLOCK_TAG_RE = (
    r"(?i)</?(?:p|div|h[1-6]|ul|ol|li|br|nav|header|footer|aside|section"
    r"|article|main|table|thead|tbody|tr|td|th|blockquote|pre|form"
    r"|figure|figcaption|hr|dl|dt|dd)(?:\s[^>]*)?/?>"
)
_ANCHOR_RE = r"(?is)<a\b[^>]*>.*?</a>"
_TAG_RE = r"(?s)<[^>]+>"


def _pl():
    import polars as pl

    return pl


def _unescape(expr):
    """Minimal HTML entity decode (named + apostrophe); &amp; LAST so
    double-escapes decode one level, matching html.unescape on them."""
    return (
        expr.str.replace_all("&lt;", "<", literal=True)
        .str.replace_all("&gt;", ">", literal=True)
        .str.replace_all("&quot;", '"', literal=True)
        .str.replace_all("&#39;", "'", literal=True)
        .str.replace_all("&amp;", "&", literal=True)
    )


def _escape(expr):
    return (
        expr.str.replace_all("&", "&amp;", literal=True)
        .str.replace_all("<", "&lt;", literal=True)
        .str.replace_all(">", "&gt;", literal=True)
    )


def render_page_exprs():
    """Polars expression rendering the deterministic synthetic page from
    (doc_id, text, source).  The host arithmetic matches extras/urls.py
    so the two curation families describe one synthetic site."""
    pl = _pl()
    d = pl.col("doc_id")
    host = (
        pl.col("source") + pl.lit(".site") + (d % 7).cast(pl.String) + pl.lit(".com")
    )
    paras = _escape(pl.col("text")).str.replace_all(
        r"((?:\S+ ){11}\S+) ", "${1}\x00"
    )
    body = (
        pl.lit('<p class="para">')
        + paras.str.replace_all("\x00", "</p>\n<p>", literal=True)
        + pl.lit("</p>")
    )
    return (
        pl.lit("<!DOCTYPE html><html><head><title>")
        + pl.col("source")
        + pl.lit(" item ")
        + (d % 311).cast(pl.String)
        + pl.lit("</title><style>.sidebar{color:#333;width:20%}</style>")
        + pl.lit('<script type="text/javascript">var page=')
        + d.cast(pl.String)
        + pl.lit("; trackPageView(page && page > 0);</script></head><body>")
        + pl.lit('<header><nav><a href="/">Home</a> <a href="/world">World</a>')
        + pl.lit(' <a href="/tech">Tech</a> <a href="/about">About us</a>')
        + pl.lit("</nav></header><!-- rendered page ")
        + d.cast(pl.String)
        + pl.lit(' ; do not index --><aside class="sidebar"><ul>')
        + pl.lit('<li><a href="/r/')
        + (d % 13).cast(pl.String)
        + pl.lit('">related story ')
        + (d % 13).cast(pl.String)
        + pl.lit('</a></li><li><a href="/t/')
        + (d % 7).cast(pl.String)
        + pl.lit('">trending topic ')
        + (d % 7).cast(pl.String)
        + pl.lit('</a></li><li><a href="/m/')
        + (d % 5).cast(pl.String)
        + pl.lit('">most read ')
        + (d % 5).cast(pl.String)
        + pl.lit("</a></li></ul></aside><main><article>")
        + body
        + pl.lit("</article></main><footer>")
        + pl.lit('<a href="/terms">Terms</a> · <a href="/privacy">Privacy</a>')
        + pl.lit(' · <a href="/contact">Contact</a> · <a href="/">© 2026 ')
        + host
        + pl.lit("</a></footer></body></html>")
    )


def extract_main_text(batch: pa.Table) -> pa.Table:
    """(doc_id, html) -> (doc_id, main_text).  Vectorized Boilerpipe-
    style scoring; every kernel is a polars string op over the exploded
    block list — no Python rows."""
    pl = _pl()
    df = pl.from_arrow(batch).select("doc_id", "html")
    clean = (
        pl.col("html")
        .str.replace_all(r"(?is)<script\b.*?</script>", " ")
        .str.replace_all(r"(?is)<style\b.*?</style>", " ")
        .str.replace_all(r"(?s)<!--.*?-->", " ")
    )
    segs = df.with_columns(
        seg=clean.str.replace_all(_BLOCK_TAG_RE, "\x00").str.split("\x00")
    ).select(
        "doc_id",
        seg_no=pl.int_ranges(pl.col("seg").list.len()),
        seg=pl.col("seg"),
    )
    segs = segs.explode("seg_no", "seg", empty_as_null=True)
    anchor = pl.col("seg").str.extract_all(_ANCHOR_RE)
    segs = segs.with_columns(
        text=_unescape(pl.col("seg").str.replace_all(_TAG_RE, " "))
        .str.replace_all(r"\s+", " ")
        .str.strip_chars(),
        anchor_chars=anchor.list.eval(
            _unescape(pl.element().str.replace_all(_TAG_RE, " "))
            .str.replace_all(r"\s+", " ")
            .str.strip_chars()
            .str.len_chars()
        )
        .list.sum()
        .fill_null(0),
    ).filter(pl.col("text") != "")
    segs = segs.with_columns(
        n_words=pl.col("text").str.split(" ").list.len(),
        density=pl.col("anchor_chars") / pl.col("text").str.len_chars(),
    ).sort("doc_id", "seg_no")
    segs = segs.with_columns(
        core=(pl.col("n_words") >= MIN_CORE_WORDS)
        & (pl.col("density") <= MAX_CORE_LINK_DENSITY)
    )
    segs = segs.with_columns(
        keep=pl.col("core")
        | (
            (pl.col("density") <= MAX_FUSE_LINK_DENSITY)
            & pl.col("core").shift(1).over("doc_id").fill_null(False)
        )
    )
    kept = (
        segs.filter(pl.col("keep"))
        .group_by("doc_id", maintain_order=True)
        .agg(main_text=pl.col("text").str.join(" "))
    )
    out = (
        df.select("doc_id")
        .join(kept, on="doc_id", how="left")
        .with_columns(main_text=pl.col("main_text").fill_null(""))
        .sort("doc_id")
    )
    return out.to_arrow().cast(EXTRACT_SCHEMA)


def q_html_extract(sf_dir: str):
    """Render the synthetic page per document and recover the main text.
    Exact oracle: a correct extractor returns the document text verbatim
    (the oracle encodes zero extraction rules)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def render_extract(batch: pa.Table) -> pa.Table:
        pl = _pl()
        df = pl.from_arrow(batch).with_columns(html=render_page_exprs())
        return extract_main_text(df.select("doc_id", "html").to_arrow())

    return ds.map_batches(render_extract, batch_format="pyarrow").sort("doc_id")


def html_extract_oracle_sql() -> str:
    return """
    SELECT doc_id, text AS main_text FROM documents ORDER BY doc_id
    """


def extract_links(batch: pa.Table) -> pa.Table:
    """(doc_id, html) -> distinct (doc_id, href) pairs.  In-block
    distinct IS globally distinct because a page never spans rows."""
    pl = _pl()
    df = pl.from_arrow(batch).select("doc_id", "html")
    hrefs = (
        pl.col("html")
        .str.extract_all(r'(?i)href="([^"]*)"')
        .list.eval(pl.element().str.slice(6).str.strip_suffix('"'))
    )
    out = (
        df.with_columns(href=hrefs)
        .select("doc_id", "href")
        .explode("href", empty_as_null=True)
        .filter(pl.col("href").is_not_null())
        .unique(subset=["doc_id", "href"])
    )
    return out.to_arrow().cast(
        pa.schema([("doc_id", pa.int64()), ("href", pa.string())])
    )


def q_html_links(sf_dir: str):
    """Outlink census over the rendered pages: per href, how many
    distinct documents link to it (web link-graph construction).
    Combiner: pairs are deduped in-block before ONE groupby on href."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def render_links(batch: pa.Table) -> pa.Table:
        pl = _pl()
        df = pl.from_arrow(batch).with_columns(html=render_page_exprs())
        return extract_links(df.select("doc_id", "html").to_arrow())

    pairs = ds.map_batches(render_links, batch_format="pyarrow")
    counts = pairs.groupby("href").count()

    def finish(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["href", "n_docs"]).cast(LINKS_SCHEMA)

    return counts.map_batches(finish, batch_format="pyarrow").sort("href")


def html_links_oracle_sql() -> str:
    """SQL twin: static chrome links appear on every page ('/' twice —
    nav Home and the footer copyright — hence COUNT(DISTINCT doc_id));
    the sidebar hrefs replicate the generator's modular arithmetic."""
    return """
    WITH links AS (
      SELECT doc_id, unnest(['/', '/world', '/tech', '/about',
                             '/terms', '/privacy', '/contact']) AS href
      FROM documents
      UNION ALL
      SELECT doc_id, '/r/' || (doc_id % 13)::VARCHAR FROM documents
      UNION ALL
      SELECT doc_id, '/t/' || (doc_id % 7)::VARCHAR FROM documents
      UNION ALL
      SELECT doc_id, '/m/' || (doc_id % 5)::VARCHAR FROM documents
    )
    SELECT href, COUNT(DISTINCT doc_id)::BIGINT AS n_docs
    FROM links GROUP BY href ORDER BY href
    """


ANCHORS_SCHEMA = pa.schema(
    [
        ("href", pa.string()),
        ("n_docs", pa.int64()),
        ("n_anchors", pa.int64()),
        ("anchor_texts", pa.string()),
    ]
)


def extract_anchor_pairs(batch: pa.Table):
    """(doc_id, html) -> (doc_id, href, txt) polars frame, one row per
    ANCHOR OCCURRENCE (a page may link one href under several texts —
    '/' carries both the nav 'Home' and the per-host footer line)."""
    pl = _pl()
    df = pl.from_arrow(batch).select("doc_id", "html")
    out = (
        df.with_columns(a=pl.col("html").str.extract_all(_ANCHOR_RE))
        .select("doc_id", "a")
        .explode("a", empty_as_null=True)
        .filter(pl.col("a").is_not_null())
        .with_columns(
            href=pl.col("a").str.extract(r'(?i)href="([^"]*)"', 1),
            txt=_unescape(
                pl.col("a").str.replace_all(_TAG_RE, "").str.strip_chars()
            ),
        )
        .filter(pl.col("href").is_not_null())
        .select("doc_id", "href", "txt")
    )
    return out


def q_anchor_texts(sf_dir: str):
    """Anchor-text aggregation (the retrieval-corpus construction step
    behind anchor-text indexes): per canonical href, the number of
    distinct linking documents, total anchor occurrences, and the
    sorted '|'-joined distinct anchor texts.

    Combiner-first: each block (docs are whole rows, so a doc lives in
    exactly ONE block — per-block distinct-doc counts are additive)
    emits one partial row per href with bounded distinct-text lists;
    the final groupby moves only those per-(href, block) partials,
    never per-anchor rows, so the every-page chrome hrefs ('/') cannot
    hot-spot the exchange."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        pl = _pl()
        df = pl.from_arrow(batch).with_columns(html=render_page_exprs())
        pairs = extract_anchor_pairs(df.select("doc_id", "html").to_arrow())
        out = pairs.group_by("href").agg(
            n_docs=pl.col("doc_id").n_unique().cast(pl.Int64),
            n_anchors=pl.len().cast(pl.Int64),
            texts=pl.col("txt").unique(),
        )
        return out.to_arrow().cast(
            pa.schema(
                [
                    ("href", pa.string()),
                    ("n_docs", pa.int64()),
                    ("n_anchors", pa.int64()),
                    ("texts", pa.list_(pa.string())),
                ]
            )
        )

    def merge(group):
        import pandas as pd

        texts = sorted({t for lst in group["texts"] for t in lst})
        return pd.DataFrame(
            {
                "href": [group["href"].iloc[0]],
                "n_docs": [int(group["n_docs"].sum())],
                "n_anchors": [int(group["n_anchors"].sum())],
                "anchor_texts": ["|".join(texts)],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("href")
        .map_groups(merge, batch_format="pandas")
        .sort("href")
    )


def anchor_texts_oracle_sql() -> str:
    """SQL twin of the renderer's anchor inventory: chrome anchors are
    constant, the '/' footer anchor text varies by host (source + doc_id
    % 7 arithmetic), sidebar anchors replicate the modular series."""
    return """
    WITH anchors AS (
      SELECT doc_id, '/' AS href, 'Home' AS txt FROM documents
      UNION ALL SELECT doc_id, '/world', 'World' FROM documents
      UNION ALL SELECT doc_id, '/tech', 'Tech' FROM documents
      UNION ALL SELECT doc_id, '/about', 'About us' FROM documents
      UNION ALL SELECT doc_id, '/terms', 'Terms' FROM documents
      UNION ALL SELECT doc_id, '/privacy', 'Privacy' FROM documents
      UNION ALL SELECT doc_id, '/contact', 'Contact' FROM documents
      UNION ALL SELECT doc_id, '/',
        '© 2026 ' || source || '.site' || (doc_id % 7)::VARCHAR || '.com'
        FROM documents
      UNION ALL SELECT doc_id, '/r/' || (doc_id % 13)::VARCHAR,
        'related story ' || (doc_id % 13)::VARCHAR FROM documents
      UNION ALL SELECT doc_id, '/t/' || (doc_id % 7)::VARCHAR,
        'trending topic ' || (doc_id % 7)::VARCHAR FROM documents
      UNION ALL SELECT doc_id, '/m/' || (doc_id % 5)::VARCHAR,
        'most read ' || (doc_id % 5)::VARCHAR FROM documents
    ),
    stats AS (
      SELECT href, COUNT(DISTINCT doc_id)::BIGINT AS n_docs,
             COUNT(*)::BIGINT AS n_anchors
      FROM anchors GROUP BY href
    ),
    d AS (SELECT DISTINCT href, txt FROM anchors),
    texts AS (
      SELECT href, STRING_AGG(txt, '|' ORDER BY txt) AS anchor_texts
      FROM d GROUP BY href
    )
    SELECT stats.href, n_docs, n_anchors, anchor_texts
    FROM stats JOIN texts USING (href)
    ORDER BY stats.href
    """
