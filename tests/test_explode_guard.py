"""Every polars ``.explode(`` under ``kazu_ray/`` pins ``empty_as_null``.

polars 1.x explodes an empty list to one null row and warns that the
default becomes ``False`` (no row) in Polars 2.0.  Passing the keyword
keeps today's rows on an upgrade; an ``ast`` scan fails on any call
that leaves it to the default.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unpinned(path: pathlib.Path, root: pathlib.Path = ROOT):
    rel = path.relative_to(root).as_posix()
    return [
        f"{rel}:{n.lineno} {ast.unparse(n)[:60]}"
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "explode"
        and not any(k.arg == "empty_as_null" for k in n.keywords)
    ]


def test_every_explode_pins_empty_as_null():
    found = [v for p in sorted((ROOT / "kazu_ray").rglob("*.py")) for v in _unpinned(p)]
    assert not found, "pass empty_as_null= to .explode():\n" + "\n".join(found)


def test_guard_flags_an_unpinned_explode(tmp_path):
    src = tmp_path / "x.py"
    src.write_text(
        "a = df.explode('ws')\n"
        "b = df.explode('ws', empty_as_null=True)\n"
    )
    assert len(_unpinned(src, root=tmp_path)) == 1
