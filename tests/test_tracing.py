"""The benchmark's tracer still finds every name it wraps.

``bench/spans.py`` replaces module attributes through ``vars(module)``, so a
refactor that unbinds one of them, or stops calling it through its module,
silently drops that layer from ``bench/run.py --trace 1``. This test makes
such a change fail here instead.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.spans import Tracer, targets, tracing  # noqa: E402
from sjet import cli  # noqa: E402


SQUARE = (
    "chart M (x: even, th: odd);\n"
    "chart N (y: even);\n"
    "morphism f : M -> N { y = x^2; }\n"
)


def _traced(argv):
    """``cli.run(argv)`` under the tracer: the result and the span names, after
    checking that every target is put back."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets()]
    tracer = Tracer()
    with tracing(tracer):
        result = cli.run(argv)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    return result, {span[0] for span in tracer.spans}


def test_traced_prolong_records_its_layers_and_restores_every_target(tmp_path):
    doc = tmp_path / "square.sman"
    doc.write_text(SQUARE, encoding="utf-8")
    result, recorded = _traced(["prolong", str(doc), "--morphism", "f", "--order", "2"])
    assert result.exit_code == 0
    assert result.payload == "y@0 = x@0^2\ny@1 = 2*x@0*x@1\ny@2 = 2*x@0*x@2 + x@1^2"
    assert {"grassmann.series_compose", "printer.render"} <= recorded


@pytest.mark.parametrize(
    "fmt, layer",
    [("json", "printer.render"), ("latex", "latex.emit_latex")],
)
def test_json_and_latex_record_their_render_layer(tmp_path, fmt, layer):
    doc = tmp_path / "square.sman"
    doc.write_text(SQUARE, encoding="utf-8")
    argv = ["prolong", str(doc), "--morphism", "f", "--order", "2", "--format", fmt]
    result, recorded = _traced(argv)
    assert result == cli.run(argv)
    assert result.exit_code == 0
    assert {"grassmann.series_compose", layer} <= recorded
