"""Regrowth guard: hash-partition exchanges are built only in
kazu_ray/exchange.py.

An ``ast`` scan of ``kazu_ray/`` and ``__ray_entry__.py`` flags

- ``.groupby("<name>")`` where the name ends in ``part`` or is a bare
  ``bucket`` column (the hand-written coarse-partition exchange), and
- a ``%`` whose left side hashes (``.hash(``, ``crc32(``, the Fibonacci
  multiplier) or whose right side is a partition count (``nparts``,
  ``n_parts``, ``num_partitions``) — a hash-mod partition column.

Sites that are not hash exchanges are listed in ``ALLOWED`` with the
reason; anything else must call ``exchange.hash_reduce``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (file, enclosing function) -> why it is not a hash exchange
ALLOWED = {
    ("kazu_ray/exchange.py", "hash_partition"): "the primitive itself",
    ("kazu_ray/extras/bloom.py", "build_bloom"):
        "partition id is a bit range of the filter, read back by the reducer",
    ("kazu_ray/extras/packing.py", "sequence_pack"):
        "partition id is a contiguous doc_id range whose offsets the reducer reads",
    ("kazu_ray/extras/dedup.py", "q_minhash_candidates"):
        "band_part encodes the band id the reducer relies on (groups by band_hash only)",
    ("kazu_ray/extras/sketches.py", "quantile_sketch.partial"):
        "whole-batch spread of one sketch's centroids, not a key partition",
    ("kazu_ray/extras/sketches.py", "quantile_sketch"):
        "whole-batch spread of one sketch's centroids, not a key partition",
    ("kazu_ray/extras/sketches.py", "heavy_hitters_tokens.partial"):
        "whole-batch spread of one Misra-Gries summary, not a key partition",
    ("kazu_ray/extras/sketches.py", "heavy_hitters_tokens"):
        "whole-batch spread of one Misra-Gries summary, not a key partition",
    ("kazu_ray/extras/windows.py", "q_range_join.count_in_partition"):
        "pandas groupby over time buckets inside one partition's reducer",
    ("kazu_ray/state/tfidf.py", "_hash_gram"):
        "feature hashing of n-grams into the tf-idf vector, not a partitioner",
}

_GROUP_COL = re.compile(r"part$|^_*bucket$")
_N_PARTS = re.compile(r"\b(n_?parts|num_partitions)\b")
_FIB = 0x9E3779B97F4A7C15


def _hashes(node) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("hash", "crc32"):
                return True
        if isinstance(n, ast.Constant) and n.value == _FIB:
            return True
    return False


def _violations(path: pathlib.Path, root: pathlib.Path = ROOT):
    rel = path.relative_to(root).as_posix()
    found = []

    def walk(node, qual):
        for ch in ast.iter_child_nodes(node):
            q = qual
            if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                q = f"{qual}.{ch.name}" if qual else ch.name
            what = None
            if (
                isinstance(ch, ast.Call)
                and isinstance(ch.func, ast.Attribute)
                and ch.func.attr == "groupby"
                and ch.args
                and isinstance(ch.args[0], ast.Constant)
                and isinstance(ch.args[0].value, str)
                and _GROUP_COL.search(ch.args[0].value)
            ):
                what = f"groupby({ch.args[0].value!r})"
            elif isinstance(ch, ast.BinOp) and isinstance(ch.op, ast.Mod) and (
                _hashes(ch.left) or _N_PARTS.search(ast.unparse(ch.right))
            ):
                what = f"{ast.unparse(ch)[:60]}"
            if what and (rel, q) not in ALLOWED:
                found.append(f"{rel}:{ch.lineno} [{q}] {what}")
            walk(ch, q)

    walk(ast.parse(path.read_text()), "")
    return found


def _sources():
    return sorted((ROOT / "kazu_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]


def test_no_hash_exchange_outside_the_primitive():
    found = [v for p in _sources() for v in _violations(p)]
    assert not found, (
        "hash-partition exchange built outside kazu_ray/exchange.py; "
        "use exchange.hash_reduce or add the site to ALLOWED with a reason:\n"
        + "\n".join(found)
    )


def test_allowlist_has_no_stale_entries():
    """Every allowlisted site still exists, so the list cannot silently
    cover code that has moved."""
    live = set()
    for p in _sources():
        rel = p.relative_to(ROOT).as_posix()

        def walk(node, qual):
            for ch in ast.iter_child_nodes(node):
                if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    q = f"{qual}.{ch.name}" if qual else ch.name
                    live.add((rel, q))
                    walk(ch, q)
                else:
                    walk(ch, qual)

        walk(ast.parse(p.read_text()), "")
    assert set(ALLOWED) <= live, sorted(set(ALLOWED) - live)


def test_guard_flags_a_hand_written_exchange(tmp_path):
    """The scan catches the patterns it exists for."""
    src = tmp_path / "kazu_ray" / "x.py"
    src.parent.mkdir()
    src.write_text(
        "def f(ds, nparts):\n"
        "    t = pl.col('k').hash(seed=3) % nparts\n"
        "    return ds.groupby('dpart')\n"
    )
    found = _violations(src, root=tmp_path)
    assert len(found) == 2, found
