"""The examples in README.md run as written.

Each ```json block decodes with the decoder for its document, in README
order: a manifold, a disc over that manifold's group, a point list and a
session.  The ```python Library block runs, and its first three prints are
what its comments say.
"""

import contextlib
import io
import re
from pathlib import Path

from daxcalc.documents import (
    disc_from_json,
    execute,
    load_json,
    manifold_from_json,
    point_document_from_json,
    session_from_json,
)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_json_examples_decode():
    manifold_text, disc_text, points_text, session_text = blocks("json")
    manifold = manifold_from_json(load_json(manifold_text))
    assert manifold.label == "optional"
    disc = disc_from_json(load_json(disc_text), manifold.group)
    assert len(disc.double_tubes) == 1 and len(disc.sr_discs) == 2
    points = point_document_from_json(load_json(points_text), manifold.group)
    assert [sign for sign, _ in points] == [1, -1]
    session = session_from_json(load_json(session_text))
    results = execute(session)
    assert len(results) == len(session.queries)
    assert {result["kind"] for result in results} == {"compare", "invariant", "reduce", "normalize", "pairing"}


def test_library_example_prints_what_its_comments_say():
    (code,) = blocks("python")
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(") and "# " in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[:3] == comments[:3] == ["t + t^-1", "NOT_ISOTOPIC", "t + t^-1"]
