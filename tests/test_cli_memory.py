"""Printing a session's results costs less memory than two copies of the output.

`daxcalc run` decodes and executes every query before stdout gets its first
byte, then writes the output line by line (text) or chunk by chunk as the
JSON encoder emits it (--json), so it never holds a second copy of the whole
output.  The session here asks 300 normalize queries over 10 discs of 9
words of 40 syllables each, fixed seed: about 0.42 MiB of text output, with
a small input.  tracemalloc's peak of cli.main(["run", ...]), with stdout a
real file, minus the peak of load_json + session_from_json + execute on the
same file, is what printing costs; it stays under BOUND times the bytes
written.  On CPython 3.11 that is about 1.2 (text) and 0.15 (--json); joining
the whole output into one string before writing it gave 3.2 and 5.5.  The
--json case also checks what was written: the same bytes as json.dumps of
its records with indent=2, and one record per query.
"""

import gc
import json
import random
import sys
import tracemalloc

import pytest

from daxcalc.cli import main
from daxcalc.documents import execute, load_json, session_from_json

FACTORS = (("x", None), ("y", None), ("a", 2), ("b", 3))
DISCS, PER_DISC, SYLLABLES, QUERIES = 10, 9, 40, 300
BOUND = 2


def word(rng: random.Random) -> str:
    """A reduced word of SYLLABLES syllables, |exponent| <= 3."""
    parts, prev = [], None
    for _ in range(SYLLABLES):
        index = rng.choice([i for i in range(len(FACTORS)) if i != prev])
        name, order = FACTORS[index]
        exp = rng.choice((-3, -2, -1, 1, 2, 3)) if order is None else rng.randint(1, order - 1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        prev = index
    return "*".join(parts)


def session(seed: int) -> dict:
    rng = random.Random(seed)
    group = {"factors": [{"type": "Z", "name": n} if o is None else {"type": "Zn", "name": n, "n": o} for n, o in FACTORS]}
    discs = {
        f"d{k}": {"sr_discs": [{"sign": rng.choice((1, -1)), "word": word(rng)} for _ in range(PER_DISC)]}
        for k in range(DISCS)
    }
    queries = [{"kind": "normalize", "disc": f"d{q % DISCS}"} for q in range(QUERIES)]
    return {"manifold": {"group": group, "dax_kernel": {"preset": "inverse_pairs"}}, "discs": discs, "queries": queries}


def peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
def test_printing_a_session_holds_less_than_two_copies_of_its_output(flags, tmp_path, monkeypatch):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(session(1)), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", str(path), *flags]
    with open(out, "w", encoding="utf-8") as handle:
        monkeypatch.setattr(sys, "stdout", handle)
        assert main(argv) == 0  # warms argparse's and json's caches before anything is traced
        handle.seek(0)
        handle.truncate()
        printing = peak(lambda: main(argv))
    written = out.stat().st_size
    assert written > 0.4 * 2**20
    if flags:
        text = out.read_text(encoding="utf-8")
        records = json.loads(text)
        assert text == json.dumps(records, indent=2) + "\n"
        assert len(records) == QUERIES
    computing = peak(lambda: execute(session_from_json(load_json(path.read_text(encoding="utf-8")), str(path))))
    assert printing - computing < BOUND * written, (
        f"printing {written} B cost {printing - computing} B above decode + execute ({computing} B)"
    )
