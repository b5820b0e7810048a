"""Spans around daxcalc's public functions, and the per-layer numbers they give.

Tracer.install() wraps each target function or method from outside the
package, everywhere the package binds it (a function imported into several
modules is wrapped in each), and Tracer.restore() puts the originals back.
The untraced runs never call install().  Every call of a wrapped target
records one span [name, start_ns, end_ns, parent, query, info] in memory;
parent is the index of the enclosing span, query the index of the query
being executed (None while decoding), and info a small summary of the
arguments or result that the counts need.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import daxcalc.documents
import daxcalc.engine
import daxcalc.forms
import daxcalc.kernel
import daxcalc.pairing
import daxcalc.words
from daxcalc.groups import GroupElement, GroupSpec
from daxcalc.kernel import ExplicitKernel, InversePairsKernel, TrivialKernel
from daxcalc.ring import RingElement

NAME, START, END, PARENT, QUERY, INFO = range(6)


def _terms(_args, result):
    return len(result.terms)


def _hnf_info(_args, result):
    rows, pivots = result
    bits = max((abs(v).bit_length() for row in rows for v in row), default=0)
    return len(pivots), bits


# (owner, attribute, span name, info) for every wrapped target
TARGETS = (
    (daxcalc.documents, "load_json", "documents.load_json", None),
    (daxcalc.documents, "session_from_json", "documents.session_from_json", None),
    (daxcalc.documents, "execute", "documents.execute", None),
    (daxcalc.documents, "render_text", "cli.render_text", None),
    (daxcalc.words, "parse_word", "words.parse_word", lambda a, r: (len(a[0]),)),
    (daxcalc.words, "parse_ringexpr", "words.parse_ringexpr", lambda a, r: (len(a[0]), len(r.terms))),
    (GroupSpec, "element", "groups.element", None),
    (GroupElement, "__mul__", "groups.mul", None),
    (GroupElement, "__invert__", "groups.invert", None),
    (RingElement, "__add__", "ring.add", None),
    (RingElement, "__post_init__", "ring.post_init", lambda a, r: len(a[0].terms)),
    (daxcalc.forms, "validate", "forms.validate", None),
    (daxcalc.forms, "normalize", "forms.normalize", lambda a, r: (len(a[0].sr_discs), len(r.sr_discs))),
    (daxcalc.engine, "phi", "engine.phi", _terms),
    (daxcalc.engine, "compare", "engine.compare", lambda a, r: r.rule),
    (TrivialKernel, "reduce", "kernel.reduce.trivial", _terms),
    (InversePairsKernel, "reduce", "kernel.reduce.inverse_pairs", _terms),
    (ExplicitKernel, "reduce", "kernel.reduce.explicit", _terms),
    (daxcalc.kernel, "hermite_normal_form", "kernel.hnf", _hnf_info),
    (daxcalc.pairing, "dax_value", "pairing.dax_value", lambda a, r: (r.dropped, len(r.value.terms))),
)

# calls whose returned ring value is a result, not an intermediate sum
PRODUCERS = ("engine.phi", "kernel.reduce.", "pairing.dax_value", "words.parse_ringexpr")
RULES = ("pi1-trivial", "equal-normal-form", "phi-difference", "phi-coincide")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.query = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, info in TARGETS:
            original = vars(owner)[attr]
            traced = self._wrap(original, name, info)
            if isinstance(owner, type):
                bindings = [owner]
            else:
                bindings = [
                    module
                    for module_name, module in sorted(sys.modules.items())
                    if module_name.split(".")[0] == "daxcalc" and vars(module).get(attr) is original
                ]
            for holder in bindings:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, traced)

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive ns and self ns."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    stats: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for i, span in enumerate(spans):
        entry = stats[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["ns"] += duration
        entry["self_ns"] += duration - child[i]
    return stats


def _ancestor(spans, index, predicate):
    parent = spans[index][PARENT]
    while parent is not None:
        if predicate(spans[parent][NAME]):
            return parent
        parent = spans[parent][PARENT]
    return None


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, query_count: int) -> dict:
    """Per-layer metrics of one traced pass (decode, execute and render)."""
    stats = aggregate(spans)

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def ms(name, key="ns"):
        return stats[name][key] / 1e6 if name in stats else 0.0

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name]

    parse_chars = sum(info[0] for info in infos("words.parse_word") + infos("words.parse_ringexpr"))
    parse_s = (ms("words.parse_word") + ms("words.parse_ringexpr")) / 1e3

    def is_producer(name):
        return name.startswith(PRODUCERS)

    useful = 0
    for i, span in enumerate(spans):
        if is_producer(span[NAME]) and _ancestor(spans, i, is_producer) is None:
            info = span[INFO]
            useful += info[-1] if isinstance(info, tuple) else info
    validated = sum(infos("ring.post_init"))

    normalized = infos("forms.normalize")
    hnf = infos("kernel.hnf")

    # forms.validate calls under each compare, grouped by the rule it ended on
    compare_validates: dict[int, int] = defaultdict(int)
    for i, span in enumerate(spans):
        if span[NAME] == "forms.validate":
            owner = _ancestor(spans, i, lambda n: n == "engine.compare")
            if owner is not None:
                compare_validates[owner] += 1
    per_rule: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[NAME] == "engine.compare":
            per_rule[span[INFO]].append(compare_validates[i])
    reached_phi = per_rule["phi-difference"] + per_rule["phi-coincide"]

    reduce_names = ("kernel.reduce.trivial", "kernel.reduce.inverse_pairs", "kernel.reduce.explicit")
    metrics = {
        "cli.render_ms": ms("cli.render_text"),
        "documents.load_json_ms": ms("documents.load_json"),
        "documents.session_from_json_ms": ms("documents.session_from_json", "self_ns"),
        "documents.execute_ms": ms("documents.execute"),
        "words.parse_word.calls": calls("words.parse_word"),
        "words.parse_word_ms": ms("words.parse_word"),
        "words.parse_ringexpr_ms": ms("words.parse_ringexpr"),
        "words.chars_per_s": _ratio(parse_chars, parse_s),
        "groups.element.calls": calls("groups.element"),
        "groups.mul.calls": calls("groups.mul"),
        "groups.invert.calls": calls("groups.invert"),
        "groups.self_ms": sum(ms(n, "self_ns") for n in ("groups.element", "groups.mul", "groups.invert")),
        "ring.add.calls": calls("ring.add"),
        "ring.add_ms": ms("ring.add"),
        "ring.elements_built": calls("ring.post_init"),
        "ring.terms_validated": validated,
        "ring.useful_term_ratio": _ratio(useful, validated),
        "forms.validate.calls_per_query": _ratio(calls("forms.validate"), query_count),
        "forms.validate.per_compare_phi": _ratio(sum(reached_phi), len(reached_phi)),
        "forms.validate.per_compare_nf": _ratio(sum(per_rule["equal-normal-form"]), len(per_rule["equal-normal-form"])),
        "forms.validate_ms": ms("forms.validate"),
        "forms.normalize_ms": ms("forms.normalize"),
        "forms.normalize.cancel_ratio": _ratio(sum(o for _, o in normalized), sum(i for i, _ in normalized)),
        "engine.phi.calls": calls("engine.phi"),
        "engine.phi_ms": ms("engine.phi"),
        "engine.compare_ms": ms("engine.compare"),
        "kernel.reduce.calls": sum(calls(n) for n in reduce_names),
        "kernel.reduce.explicit_ms": ms("kernel.reduce.explicit"),
        "kernel.reduce.inverse_pairs_ms": ms("kernel.reduce.inverse_pairs"),
        "kernel.hnf.calls": calls("kernel.hnf"),
        "kernel.hnf_ms": ms("kernel.hnf"),
        "kernel.hnf.calls_per_reduce": _ratio(calls("kernel.hnf"), calls("kernel.reduce.explicit")),
        "kernel.hnf.rank": max((rank for rank, _ in hnf), default=0),
        "kernel.hnf.max_bits": max((bits for _, bits in hnf), default=0),
        "pairing.dax_value_ms": ms("pairing.dax_value"),
        "pairing.dropped": sum(d for d, _ in infos("pairing.dax_value")),
    }
    for rule in RULES:
        metrics[f"engine.compare.rule.{rule}"] = len(per_rule[rule])
    return metrics
