"""Spans around the calls into each sjet layer, recorded from outside sjet.

``tracing(tracer)`` replaces public functions and methods at module
boundaries with wrappers that record a span per call, and puts the originals
back on exit. A span is ``[name, start, end, parent, command]``; spans stay
in memory until the run summarises them and writes them out. A call made
while a span of the same name is open is not recorded again, so ``.ms``
never counts time twice.

``SuperPolynomial.__mul__`` and ``__add__`` are not wrapped: there are
millions of calls, and their time stays in the callers' self time.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self.counts: Counter = Counter()
        self.max_coords = 0  # the largest chart a VectorField was built on
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per outermost call; ``after(tracer, args, result)``."""
        spans, stack, open_names = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(record)
            open_names.add(name)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                open_names.discard(name)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def dump(self, path, commands) -> None:
        """Write the spans, times in ms from the first span, and the command keys."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((start - origin) * 1000, 4), round((end - origin) * 1000, 4), parent, cmd]
            for name, start, end, parent, cmd in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ms", "end_ms", "parent", "command"],
                       "commands": commands, "spans": rows}, f)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive ``ms``, ``self_ms`` and ``calls``.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap (one thread).
        """
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0}
        )
        for (name, start, end, _, _), covered in zip(self.spans, children):
            row = out[name]
            row["ms"] += (end - start) * 1000
            row["self_ms"] += (end - start - covered) * 1000
            row["calls"] += 1
        return out


def _count_bytes_in(tracer, args, result):
    tracer.counts["dsl.bytes_in"] += len(args[0].encode("utf-8"))


def _count_series_terms(tracer, args, result):
    tracer.counts["grassmann.series_compose.terms_out"] += sum(
        len(c.terms) for c in result.coefficients
    )


def _count_nonzero_partial(tracer, args, result):
    if not result.is_zero():
        tracer.counts["grassmann.partial.nonzero"] += 1


def _record_chart_size(tracer, args, result):
    # VectorField.__init__(self, chart, parity, values)
    tracer.max_coords = max(tracer.max_coords, len(args[1].coordinates))


def targets():
    """(owner, attribute, span name, after-hook) for every wrapped boundary."""
    import sjet.cli as cli
    import sjet.fields as fields
    import sjet.geometry as geometry
    import sjet.prolongation as prolongation
    from sjet.fields import VectorField
    from sjet.grassmann import SuperPolynomial

    return (
        (cli, "parse", "dsl.parse", _count_bytes_in),
        (cli, "prolong_morphism", "prolongation.prolong_morphism", None),
        (cli, "antitangent_morphism", "prolongation.antitangent_morphism", None),
        (cli, "interchange", "prolongation.interchange", None),
        (cli, "homothety", "prolongation.homothety", None),
        (cli, "prolong_chart", "prolongation.prolong_chart", None),
        (cli, "weight_report", "prolongation.weight_report", None),
        (cli, "compose", "geometry.compose", None),
        (cli, "jet_of_curve", "geometry.jet_of_curve", None),
        (cli, "bracket", "fields.bracket", None),
        (cli, "verify_relations", "fields.verify_relations", None),
        (cli, "emit_latex", "latex.emit_latex", None),
        (cli, "format_morphism", "printer.render", None),
        (cli, "format_jet", "printer.render", None),
        (cli, "format_field", "printer.render", None),
        (cli, "format_polynomial", "printer.render", None),
        (prolongation, "series_compose", "grassmann.series_compose", _count_series_terms),
        (prolongation, "partial", "grassmann.partial", _count_nonzero_partial),
        (fields, "partial", "grassmann.partial", _count_nonzero_partial),
        (fields, "bracket", "fields.bracket", None),
        (fields, "canonical_fields", "fields.canonical_fields", None),
        (geometry, "substitute", "grassmann.substitute", None),
        (SuperPolynomial, "__pow__", "grassmann.pow", None),
        (VectorField, "__init__", "fields.field_init", _record_chart_size),
        (VectorField, "apply", "fields.apply", None),
    )


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them."""
    saved = []
    try:
        for owner, attr, name, after in targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
