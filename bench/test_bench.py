"""Tests of the benchmark itself, on small sessions.

    python3 -m pytest bench/test_bench.py

The repository's own suite never collects this file (pytest's testpaths is
tests/); the last test checks that.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import reference  # noqa: E402
from reference import Group, key  # noqa: E402

SMALL = {
    "large_discs": lambda seed: generate.large_discs(seed, ladder=((16, 2), (25, 1), (260, 1))),
    "explicit_kernel": lambda seed: generate.explicit_kernel(seed, n_discs=6, n_reduce_pairs=4),
    "long_words": lambda seed: generate.long_words(seed, n_discs=12, n_pairing=4, n_reduce=4),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(section: str) -> list[str]:
    return sorted(m["name"] for m in SPEC[section])


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_same_session_bytes(workload):
    first, again, other = (generate.generate(workload, s) for s in (7, 7, 8))
    assert first.session_text == again.session_text
    assert first.expect == again.expect
    assert first.session_text != other.session_text


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(generate.WORKLOADS)


def test_reference_words_and_order():
    group = Group((("x", None), ("a", 2), ("b", 3)))
    word = group.reduce([(0, 2), (0, -2), (1, 3), (2, 4), (2, -1), (0, -1)])
    assert word == ((1, 1), (0, -1))
    assert group.word_text(word) == "a*x^-1"
    assert group.reduce(word + group.inverse(word)) == ()
    ordered = sorted([((0, -1),), ((0, 1),), ((1, 1), (0, 1)), ((2, 1),)], key=key)
    assert [group.word_text(w) for w in ordered] == ["x", "x^-1", "b", "a*x"]
    assert group.ring_text({((0, 1),): -2, ((1, 1),): 1}) == "-2*x + a"
    assert group.ring_text({}) == "0"


def check_in_process(work) -> list[str]:
    from daxcalc.documents import SessionDocument, execute, load_json, render_text, session_from_json

    doc = session_from_json(load_json(work.session_text))
    docs = [SessionDocument(doc.manifold, doc.discs, (q,)) for q in doc.queries]
    tally = run.Tally()
    _, _, lines = run.run_queries(docs, execute, render_text, tally)
    tally.check(lines, work.expect)
    assert (tally.attempted, tally.failed) == (len(docs), 0)
    return lines


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_daxcalc_matches_planted_and_reference_answers(workload):
    work = SMALL[workload](3)
    lines = check_in_process(work)
    tally = run.Tally()
    tally.check(["wrong"] + lines[1:], work.expect)
    assert tally.wrong > 0


def test_reference_invariants_and_verdicts_on_an_inverse_pairs_kernel():
    rng = random.Random(9)
    group = Group((("x", None), ("y", None), ("a", 2)))
    b = generate._Builder(group, {"group": group.to_json(), "dax_kernel": {"preset": "inverse_pairs"}})
    for k in range(8):
        tubes = [generate.involution(rng, group, 1)]
        discs = [(rng.choice((1, -1)), generate.loose_word(rng, group)) for _ in range(6)]
        d = b.disc(f"d{k}", tubes, discs)
        value = reference.reduce_value(group, "inverse_pairs", reference.phi_raw(group, tubes, discs))
        b.query({"kind": "invariant", "disc": d}, ("line", group.ring_text(value)))
        swapped = [(s, group.inverse(g)) for s, g in discs]
        for other in (b.disc(f"s{k}", tubes, swapped), b.disc(f"o{k}", [], discs[:3])):
            expected = reference.compare_line(group, "inverse_pairs", b.data[d], b.data[other])
            b.query({"kind": "compare", "discs": [d, other]}, ("line", expected))
    work = b.build("inverse_pairs", rng)
    assert any(kind == "line" and line.startswith("UNKNOWN") for kind, line in work.expect)
    check_in_process(work)


def test_spelling_reduces_to_the_word():
    rng = random.Random(5)
    group = Group((("x", None), ("y", None), ("a", 2), ("b", 3)))
    for _ in range(50):
        word = generate.exact_word(rng, group, 12)
        text = generate.spell(rng, group, word)
        raw = []
        for syllable in text.split("*"):
            name, _, exp = syllable.partition("^")
            raw.append((group.names.index(name), int(exp or 1)))
        assert group.reduce(raw) == word


def test_measured_run_prints_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    work = SMALL["large_discs"](4)
    session = tmp_path / "session.json"
    session.write_text(work.session_text)
    tally = run.Tally()
    metrics, counts = run.measure(work, 0.1, session, tally)
    assert sorted(metrics) == names("end_to_end")
    assert all(v > 0 for v in metrics.values())
    assert tally.failed == 0
    assert counts["steps"] == run.MIN_STEPS


def test_traced_counts_match_the_seed_code():
    large = run.traced_pass(SMALL["large_discs"](5), run.Tally())[0]
    assert large["forms.validate.per_compare_phi"] == 6.0
    assert large["forms.validate.per_compare_nf"] == 4.0
    assert large["engine.compare.rule.phi-coincide"] > 0
    assert large["kernel.hnf.calls"] == 0
    explicit = run.traced_pass(SMALL["explicit_kernel"](5), run.Tally())[0]
    assert explicit["kernel.hnf.calls_per_reduce"] == 1.0
    assert explicit["kernel.hnf.rank"] > 0
    words = run.traced_pass(SMALL["long_words"](5), run.Tally())[0]
    assert words["engine.phi.calls"] == 0
    assert words["pairing.dropped"] == 2 * 4
    assert run.traced_pass(SMALL["long_words"](5), run.Tally())[0]["groups.element.calls"] == words["groups.element.calls"]


def test_traced_run_prints_every_per_layer_metric_and_unwraps(tmp_path, monkeypatch):
    import daxcalc
    import daxcalc.documents
    import daxcalc.engine
    from daxcalc.ring import RingElement

    before = (daxcalc.engine.phi, daxcalc.documents.phi, daxcalc.phi, RingElement.__add__)
    monkeypatch.setattr(run, "OUT", tmp_path)
    tally = run.Tally()
    metrics, _ = run.trace(SMALL["explicit_kernel"](6), 6, tally)
    assert sorted(metrics) == names("per_layer")
    assert tally.failed == 0
    assert (daxcalc.engine.phi, daxcalc.documents.phi, daxcalc.phi, RingElement.__add__) == before
    assert {p.name for p in tmp_path.iterdir()} == {"explicit_kernel-6-trace.json", "explicit_kernel-6-spans.jsonl.gz"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "long_words", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable] + cmd[1:], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_repository_suite_does_not_collect_the_benchmark():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert collected
    assert all(line.startswith("tests/") for line in collected)


def test_child_is_not_charged_with_the_benchmark_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    ballast = bytearray(300 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    _, out, code, maxrss_kib = run.run_child([sys.executable, "-c", "print('ok')"])
    assert (out, code) == (b"ok\n", 0)
    assert maxrss_kib < 100 * 1024
