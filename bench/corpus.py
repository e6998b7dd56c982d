"""Seeded documents and command lists for the CLI benchmark.

``build(workload, seed)`` returns the documents to write and one cycle of
commands to run on them. The seed chooses the content: coefficients, signs,
a relabelling of each morphism's source generators, and the command order.
The command shapes (subcommand, format, jet order, exponent, chart size),
the structure of each document and the document each command reads are
fixed per workload, so the cost of a cycle, and with it every end-to-end
metric, barely depends on the seed.

Every workload carries the two inputs that crash at the seed commit
(ROADMAP item 2), so ``fail_ratio`` is measured on each; ``cli-small``
carries the whole seven-input error slice. Two known unbounded inputs,
``x^1000000000`` and ``field ... order 3000``, are deliberately absent: they
do not finish within a run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("cli-small", "lift-deep", "fields-wide", "dense-power")

DEEP_NESTING = "deep-nesting"
NOT_UTF8 = "not-utf8"
# Bad inputs that end in a traceback and exit 1 at the seed commit.
KNOWN_DEFECTS = frozenset((DEEP_NESTING, NOT_UTF8))
ERROR_SLICE = (
    "bad-syntax",
    "undeclared-name",
    "parity-violation",
    "unknown-flag",
    "missing-file",
    DEEP_NESTING,
    NOT_UTF8,
)
FORMATS = ("text", "json", "latex")


@dataclass(frozen=True)
class Command:
    """One CLI invocation, ``python -m sjet.cli *argv``, run in the corpus dir."""

    argv: tuple[str, ...]
    expect_exit: int
    kind: str  # the subcommand, or the name of the bad input

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    documents: dict[str, bytes]
    commands: tuple[Command, ...]

    def digest(self) -> str:
        """SHA-256 over every document and every command, in order."""
        h = hashlib.sha256()
        for name in sorted(self.documents):
            h.update(name.encode() + b"\0" + self.documents[name] + b"\0")
        for cmd in self.commands:
            h.update(json.dumps([cmd.argv, cmd.expect_exit, cmd.kind]).encode())
        return h.hexdigest()


README_DOC = """\
chart M (x: even, th: odd);
chart N (y: even);
params P (e1: odd);

morphism f : M -> N {
  y = x^2;
}

curve gamma on M params P order 2 {
  x = 1 + 2*t + t^2;
  th = e1*t;
}

field D on M order 1 parity odd {
  d/d x@0 = d.x@0;
  d/d th@0 = d.th@0;
  d/d x@1 = d.x@1;
  d/d th@1 = d.th@1;
}
"""


# -- text helpers ---------------------------------------------------------------


def _coeff(rng: random.Random) -> str:
    return str(Fraction(rng.choice((1, 1, 2, 3, 4, 5, 7)), rng.choice((1, 1, 2, 3, 5))))


_PLACEHOLDER = re.compile(r"([EO])(\d)")


def _polynomial(rng, terms, evens, odds) -> str:
    """Fill a template such as ("E0^2*E1", "O0") with generators and coefficients.

    ``En`` and ``On`` name the n-th even and odd generator of ``evens`` and
    ``odds``; the seed picks the coefficients and the signs.
    """
    pieces = []
    for i, term in enumerate(terms):
        mono = _PLACEHOLDER.sub(
            lambda m: (evens if m.group(1) == "E" else odds)[int(m.group(2))], term
        )
        c = _coeff(rng)
        body = mono if c == "1" else f"{c}*{mono}"
        negative = rng.random() < 0.3
        if i == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def _rotation(items):
    """An endless round-robin over ``items`` in sorted order.

    Pairing command shapes with documents in a fixed way keeps the cost of a
    cycle independent of the seed.
    """
    return itertools.cycle(sorted(items))


def _chart(name, evens, odds) -> str:
    coords = [f"{g}: even" for g in evens] + [f"{g}: odd" for g in odds]
    return f"chart {name} ({', '.join(coords)});"


def _morphism(rng, name, src, dst, even_templates, odd_templates) -> str:
    """A morphism whose i-th even (odd) target gets the i-th even (odd) template.

    ``src`` and ``dst`` are (chart name, evens, odds). The seed relabels the
    source generators within each parity, so every seed gets a morphism of
    the same structure, and so of the same cost, with other names and
    coefficients.
    """
    evens = rng.sample(src[1], len(src[1]))
    odds = rng.sample(src[2], len(src[2]))
    lines = [f"morphism {name} : {src[0]} -> {dst[0]} {{"]
    for templates, coords in ((even_templates, dst[1]), (odd_templates, dst[2])):
        for g, terms in zip(coords, templates):
            lines.append(f"  {g} = {_polynomial(rng, terms, evens, odds)};")
    lines.append("}")
    return "\n".join(lines)


def _field(rng, name, chart, order, parity) -> str:
    """A field on the parity-reversed lift of the order-k jet chart.

    The odd field sends each jet coordinate to a multiple of its
    differential; the even one rescales jet coordinates and differentials.
    """
    _, evens, odds = chart
    lines = [f"field {name} on {chart[0]} order {order} parity {parity} {{"]
    for g in list(evens) + list(odds):
        for r in range(order + 1):
            if parity == "odd":
                lines.append(f"  d/d {g}@{r} = {_coeff(rng)}*d.{g}@{r};")
            else:
                lines.append(f"  d/d {g}@{r} = {_coeff(rng)}*{g}@{r};")
                lines.append(f"  d/d d.{g}@{r} = {_coeff(rng)}*d.{g}@{r};")
    lines.append("}")
    return "\n".join(lines)


def _curve(rng, chart) -> str:
    name, evens, odds = chart
    lines = [f"curve gamma on {name} params P order 3 {{"]
    for g in evens:
        lines.append(f"  {g} = {_coeff(rng)} + {_coeff(rng)}*t + s*t^2 - e1*e2*t^3;")
    for g in odds:
        lines.append(f"  {g} = e1*t + {_coeff(rng)}*e2*t^2;")
    lines.append("}")
    return "\n".join(lines)


LAMBDAS = ("symbolic", "2", "1/2", "-3", "2/3", "5/7")
FIELD_PAIRS = (("D", "E"), ("E", "D"), ("D", "D"), ("E", "E"))


def _cmd(kind, path, *options) -> Command:
    """A command on a good document, which must exit 0."""
    return Command((kind, path) + tuple(str(o) for o in options), 0, kind)


# -- the error slice ------------------------------------------------------------


def _error_slice(rng, kinds, good_doc: str):
    """Bad inputs: each must end with exit 2, a diagnostic and no traceback."""
    chart = rng.choice(("A", "B", "Q", "Src", "Base"))
    coord = rng.choice(("u", "v", "s", "w"))
    texts = {
        "bad-syntax": f"chart {chart} ({coord}: even;\n",
        "undeclared-name": (
            f"chart {chart} ({coord}: even);\n"
            f"morphism m : {chart} -> {chart} "
            f"{{ {coord} = {coord} + zz{rng.randrange(100)}; }}\n"
        ),
        "parity-violation": (
            f"chart {chart} ({coord}: even, th: odd);\n"
            f"morphism m : {chart} -> {chart} {{ {coord} = th; th = th; }}\n"
        ),
        DEEP_NESTING: (
            f"chart {chart} ({coord}: even);\n"
            f"morphism m : {chart} -> {chart} {{ {coord} = "
            + "(" * 3000 + coord + ")" * 3000 + "; }\n"
        ),
    }
    docs: dict[str, bytes] = {}
    commands = []
    for kind in kinds:
        path = f"bad-{kind}.sman"
        if kind in texts:
            docs[path] = texts[kind].encode()
            argv = ("check", path)
        elif kind == NOT_UTF8:
            docs[path] = f"chart {chart} ({coord}: even); # caf\xe9\n".encode("latin-1")
            argv = ("check", path)
        elif kind == "unknown-flag":
            argv = ("check", good_doc, "--" + rng.choice(("fast", "nope", "strict")))
        else:  # missing-file
            argv = ("check", f"missing-{rng.randrange(1000)}.sman")
        commands.append(Command(argv, 2, kind))
    return docs, commands


# -- workloads --------------------------------------------------------------------


SMALL_EVEN = ("x", "y")
SMALL_ODD = ("th", "ps")


def _small_templates(n_even: int, n_odd: int):
    """Two-term quadratic pullback templates between charts of this size."""
    even = tuple((f"E{j}^2", f"E{(j + 1) % n_even}") for j in range(n_even))
    odd = tuple((f"E0*O{j}", f"O{(j + 1) % n_odd}") for j in range(n_odd))
    return even, odd


def _small_doc(rng, n_charts: int, n_even: int, n_odd: int, field_order: int) -> str:
    """Small charts in a cycle of quadratic morphisms, a curve and two fields."""
    charts = [
        (f"C{i}", tuple(f"{g}{i}" for g in SMALL_EVEN[:n_even]),
         tuple(f"{g}{i}" for g in SMALL_ODD[:n_odd]))
        for i in range(n_charts)
    ]
    parts = [_chart(*c) for c in charts]
    parts.append("params P (e1: odd, e2: odd, s: even);")
    for i, src in enumerate(charts):
        parts.append(_morphism(rng, f"m{i}", src, charts[(i + 1) % n_charts],
                               *_small_templates(n_even, n_odd)))
    parts.append(_curve(rng, charts[0]))
    parts.append(_field(rng, "D", charts[0], field_order, "odd"))
    parts.append(_field(rng, "E", charts[0], field_order, "even"))
    return "\n".join(parts) + "\n"


# (charts, even and odd coordinates per chart, field order) per small document
SMALL_DOCS = ((1, 1, 1, 0), (2, 2, 1, 1), (3, 1, 2, 1), (1, 2, 2, 2), (2, 1, 1, 0), (3, 2, 2, 2))


def _cli_small(rng):
    """Small documents: start-up, argparse and parsing dominate every command."""
    docs = {"readme.sman": README_DOC}
    for i, spec in enumerate(SMALL_DOCS):
        docs[f"small{i}.sman"] = _small_doc(rng, *spec)
    # per document: (first chart, a morphism, highest curve jet order)
    facts = {p: ("C0", "m0", 3) for p in docs}
    facts["readme.sman"] = ("M", "f", 2)
    pick = _rotation(docs)
    pick_small = _rotation(p for p in docs if p != "readme.sman")

    commands = []
    for _ in range(7):
        commands.append(_cmd("check", next(pick)))
    for i in range(8):
        p = next(pick)
        commands.append(_cmd("prolong", p, "--morphism", facts[p][1],
                             "--order", i % 4, "--format", FORMATS[i % 3]))
    for i in range(5):
        p = next(pick)
        commands.append(_cmd("pit", p, "--morphism", facts[p][1], "--format", FORMATS[i % 3]))
    for i in range(3):
        p = next(pick)
        commands.append(_cmd("interchange", p, "--chart", facts[p][0], "--order", i % 3,
                             "--format", FORMATS[i % 2]))
    for i in range(5):
        p = next(pick)
        commands.append(_cmd("jet", p, "--curve", "gamma", "--order", min(i % 4, facts[p][2]),
                             "--at", ("0", "1", "1/2", "2/3")[i % 4],
                             "--format", FORMATS[i % 3]))
    for i in range(5):
        left, right = FIELD_PAIRS[i % 4]
        commands.append(_cmd("bracket", next(pick_small), "--left", left, "--right", right,
                             "--format", FORMATS[i % 3]))
    for i in range(3):
        p = next(pick)
        commands.append(_cmd("homothety", p, "--chart", facts[p][0], "--order", i % 4,
                             "--lambda", LAMBDAS[i], "--format", FORMATS[i % 3]))
    for i, suite in enumerate(("relations", "functorial", "weights") * 2):
        commands.append(_cmd("verify", next(pick), "--suite", suite,
                             "--order", 1 + i % 3, "--format", FORMATS[i % 2]))
    return docs, commands, ERROR_SLICE


LIFT_M = ("M", ("x", "y", "z"), ("a", "b", "c"))
LIFT_N = ("N", ("u", "v", "w"), ("p", "q", "r"))
# 4-term cubic pullbacks, odd-rich, for u, v, w and p, q, r
CUBIC_TEMPLATES = (
    (
        ("E0^2*E1", "E2*O0*O1", "E0*E2", "E1"),
        ("E1^2*E2", "E0*O1*O2", "E0*E1", "E2"),
        ("E2^2*E0", "E1*O0*O2", "E1*E2", "E0"),
    ),
    (
        ("E0*E1*O0", "O0*O1*O2", "E2*O1", "O2"),
        ("E1*E2*O1", "O0*O1*O2", "E0*O2", "O0"),
        ("E0*E2*O2", "O0*O1*O2", "E1*O0", "O1"),
    ),
)
# linear pullbacks back, so that composites stay cubic
LINEAR_TEMPLATES = (
    (("E0", "E1"), ("E1", "E2"), ("E2", "E0")),
    (("O0", "O1"), ("O1", "O2"), ("O2", "O0")),
)


def _lift_deep(rng):
    """(3|3) odd-rich charts with 4-term cubic pullbacks: kernel and series work."""
    docs = {}
    for i in range(4):
        parts = [
            _chart(*LIFT_M),
            _chart(*LIFT_N),
            _morphism(rng, "f", LIFT_M, LIFT_N, *CUBIC_TEMPLATES),
            _morphism(rng, "g", LIFT_N, LIFT_M, *LINEAR_TEMPLATES),
        ]
        docs[f"lift{i}.sman"] = "\n".join(parts) + "\n"
    pick = _rotation(docs)
    commands = []
    for i, k in enumerate((4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8)):
        commands.append(_cmd("prolong", next(pick), "--morphism", "f",
                             "--order", k, "--format", FORMATS[i % 3]))
    for i in range(6):
        commands.append(_cmd("pit", next(pick), "--morphism", "fg"[i % 2],
                             "--format", FORMATS[i % 3]))
    # the documents are isomorphic, so the four interchange k = 3 commands
    # cost the same: they and the deep-nesting crasher fill the top tenth,
    # which keeps p90 inside one group of equal costs
    for i, k in enumerate((2, 2, 3, 3, 3, 3)):
        commands.append(_cmd("interchange", next(pick), "--chart", "M",
                             "--order", k, "--format", FORMATS[i % 2]))
    for i, k in enumerate((2, 2, 3, 3)):
        commands.append(_cmd("verify", next(pick), "--suite", "functorial",
                             "--order", k, "--format", FORMATS[i % 2]))
    for i, k in enumerate((3, 4, 5, 6)):
        commands.append(_cmd("verify", next(pick), "--suite", "weights",
                             "--order", k, "--format", FORMATS[i % 2]))
    return docs, commands, sorted(KNOWN_DEFECTS)


FIELD_CHARTS = (
    ("M", ("x",), ("th",)),
    ("M", ("x", "y"), ("th",)),
    ("M", ("x",), ("th", "ps")),
    ("M", ("x", "y"), ("th", "ps")),
)


def _order_for(chart, jets: int) -> int:
    """The jet order at which ``chart`` has about ``jets`` jet coordinates."""
    return jets // (len(chart[1]) + len(chart[2])) - 1


def _fields_wide(rng):
    """Relation tables, brackets and homotheties on charts of hundreds of coordinates.

    Each document has one chart (the relation suite covers every chart of a
    document). Orders are chosen per chart so that a command costs about
    the same on every document; each command shape runs on all four, and
    the four largest relation tables fill the top tenth with the crasher.
    """
    docs = {}
    for i, chart in enumerate(FIELD_CHARTS):
        order = _order_for(chart, 48)
        parts = [
            _chart(*chart),
            _field(rng, "D", chart, order, "odd"),
            _field(rng, "E", chart, order, "even"),
        ]
        docs[f"wide{i}.sman"] = "\n".join(parts) + "\n"
    paths = sorted(docs)
    commands = []
    for level, jets in enumerate((24, 48, 72, 96)):
        for j, (p, chart) in enumerate(zip(paths, FIELD_CHARTS)):
            commands.append(_cmd("verify", p, "--suite", "relations",
                                 "--order", _order_for(chart, jets),
                                 "--format", FORMATS[(level + j) % 2]))
    for i in range(2):
        for j, p in enumerate(paths):
            left, right = FIELD_PAIRS[(i + j) % 4]
            commands.append(_cmd("bracket", p, "--left", left, "--right", right,
                                 "--format", FORMATS[(i + j) % 3]))
    for i, jets in enumerate((96, 144)):
        for j, (p, chart) in enumerate(zip(paths, FIELD_CHARTS)):
            commands.append(_cmd("homothety", p, "--chart", "M",
                                 "--order", _order_for(chart, jets),
                                 "--lambda", LAMBDAS[(2 * i + j) % len(LAMBDAS)],
                                 "--format", FORMATS[(i + j) % 3]))
    return docs, commands, sorted(KNOWN_DEFECTS)


def _dense_coeff(rng) -> str:
    """A proper fraction of small, similar size, so every seed costs the same."""
    num, den = rng.choice(((1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5), (3, 7), (5, 7)))
    return f"{num}/{den}"


# (morphism, exponent of u, exponent of v); every document declares all three
POWERS = (("p6", 6, 5), ("p10", 10, 6), ("p16", 16, 10))


def _dense_power(rng):
    """Dense even powers: few large polynomials with big rationals, large renders.

    Four documents of the same structure, so that each command shape costs
    the same on each; the four order-2 lifts of ``p16`` fill the top tenth
    with the crasher.
    """
    docs = {}
    for i in range(4):
        parts = ["chart M (x: even, y: even);", "chart N (u: even, v: even);"]
        for name, n, m in POWERS:
            a, b, c, d = (_dense_coeff(rng) for _ in range(4))
            parts += [
                f"morphism {name} : M -> N {{",
                f"  u = (1 + {a}*x + {b}*y)^{n};",
                f"  v = ({c} - {d}*x*y + y)^{m};",
                "}",
            ]
        docs[f"power{i}.sman"] = "\n".join(parts) + "\n"
    paths = sorted(docs)
    commands = [_cmd("check", p) for p in paths]
    for name, _, _ in POWERS:
        for order in (1, 2):
            for j, p in enumerate(paths):
                commands.append(_cmd("prolong", p, "--morphism", name, "--order", order,
                                     "--format", FORMATS[(order + j) % 3]))
    return docs, commands, sorted(KNOWN_DEFECTS)


_GENERATORS = {
    "cli-small": _cli_small,
    "lift-deep": _lift_deep,
    "fields-wide": _fields_wide,
    "dense-power": _dense_power,
}


def build(workload: str, seed: int) -> Corpus:
    """The documents and one shuffled cycle of commands for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    docs, commands, errors = _GENERATORS[workload](rng)
    bad_docs, bad_commands = _error_slice(rng, errors, sorted(docs)[0])
    commands = commands + bad_commands
    rng.shuffle(commands)
    documents = {name: text.encode() for name, text in docs.items()}
    documents.update(bad_docs)
    return Corpus(workload, seed, documents, tuple(commands))
