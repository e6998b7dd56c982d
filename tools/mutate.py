"""Mutation gate: every named mutant of src/ must make its tests fail.

    python tools/mutate.py            # every mutant
    python tools/mutate.py NAME ...   # only the named ones

A mutant is a name, a file under src/, an exact source snippet, its
replacement and the test files (or pytest node ids) that must catch it.
For each mutant the script copies src/ to a temporary directory, applies
that one replacement and runs the test files against the copy. The test
files first run once against an unchanged copy, which must pass. Exit
status: 0 when every mutant is caught, 1 when one survives or the
unchanged copy fails, 2 when a snippet does not occur exactly once, so that
a refactor cannot disarm a mutant without notice. Standard library only;
it needs pytest and hypothesis, as the tests do.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "power-odd-part-factor",
        "sjet/grassmann.py",
        "_mul_into([sums], (head,), (tail,), n)",
        "_mul_into([sums], (head,), (tail,), 1)",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "power-binomial",
        "sjet/grassmann.py",
        "math.comb(j, k) * ck",
        "ck",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "power-odd-monomial-reach",
        "sjet/grassmann.py",
        "most = 1 if mono.odd else n",
        "most = n",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "apply-drops-a-generator",
        "sjet/grassmann.py",
        "for pos, (x, _) in enumerate(even):",
        "for pos, (x, _) in list(enumerate(even))[1:]:",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "bracket-koszul-sign",
        "sjet/fields.py",
        "koszul = -1 if (X.parity is ODD and Y.parity is ODD) else 1",
        "koszul = 1",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "internal-error-exits-1",
        "sjet/cli.py",
        "EXIT_INTERNAL = 3",
        "EXIT_INTERNAL = 1",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-order-unchecked",
        "sjet/cli.py",
        'if getattr(args, "order", 0) > MAX_ORDER:',
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "morphism-parity-unchecked",
        "sjet/geometry.py",
        "if not p.is_homogeneous(parity):",
        "if False:",
        (
            "tests/test_geometry.py",
            "tests/test_prolongation.py",
            "tests/test_dsl.py",
            "tests/test_fields.py",
        ),
    ),
    Mutant(
        "unknown-coordinate-accepted",
        "sjet/geometry.py",
        "if g not in chart:",
        "if False:",
        ("tests/test_geometry.py", "tests/test_fields.py"),
    ),
    Mutant(
        "foreign-generator-accepted",
        "sjet/geometry.py",
        'names = "" if allowed is None else foreign_names(p, allowed)',
        'names = ""',
        ("tests/test_geometry.py", "tests/test_fields.py"),
    ),
    Mutant(
        "compose-charts-unchecked",
        "sjet/geometry.py",
        "if psi.target is not phi.source:",
        "if False:",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "image-parity-unchecked",
        "sjet/grassmann.py",
        "if not all(p.is_homogeneous(g.parity) for p in parts(value)):",
        "if False:",
        ("tests/test_algebra.py", "tests/test_geometry.py"),
    ),
    Mutant(
        "evaluate-common-denominator-dropped",
        "sjet/grassmann.py",
        "divisor = denominator * common",
        "divisor = denominator",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "antitangent-left-sign-dropped",
        "sjet/grassmann.py",
        "sums[mono] = get(mono, 0) - ca * cb",
        "sums[mono] = get(mono, 0) + ca * cb",
        ("tests/test_prolongation.py",),
    ),
    Mutant(
        "odd-partial-sign-dropped",
        "sjet/grassmann.py",
        "-c if pos % 2 else c",
        "c",
        ("tests/test_prolongation.py", "tests/test_fields.py"),
    ),
    Mutant(
        "normalize-sign-reset",
        "sjet/grassmann.py",
        "sign *= s",
        "sign = s",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "series-split-drops-top-order",
        "sjet/grassmann.py",
        "degree <= order",
        "degree < order",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "verdict-exit-dropped",
        "sjet/cli.py",
        'code = 0 if all(row["ok"] for row in checks) else 1',
        "code = 0",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "exit-without-flush",
        "sjet/cli.py",
        "sys.stdout.flush()",
        "pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "dsl-ignores-subject",
        "sjet/dsl.py",
        "self.fail(str(exc), where.get(exc.subject, whole))",
        "self.fail(str(exc), whole)",
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "literal-digits-unbounded",
        "sjet/dsl.py",
        'if max(len(part) for part in match.groups("")) > MAX_DIGITS:',
        "if False:",
        ("tests/test_cli.py::TestExitCodes",),
    ),
    Mutant(
        "rational-option-unbounded",
        "sjet/dsl.py",
        'if max(len(part) for part in match.groups("")) > MAX_DIGITS:',
        "if False:",
        ("tests/test_cli.py::TestRationalOptions",),
    ),
    Mutant(
        "value-equality-skips-a-slot",
        "sjet/geometry.py",
        "for n in type(self).__slots__)",
        "for n in type(self).__slots__[1:])",
        ("tests/test_types.py",),
    ),
    Mutant(
        "rendered-digits-unbounded",
        "sjet/printer.py",
        "if magnitude.numerator >= _TOO_LONG"
        " or magnitude.denominator >= _TOO_LONG:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "lexer-skips-unknown-characters",
        "sjet/dsl.py",
        "if start != pos:",
        "if False:",
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "cli-required-option-unchecked",
        "sjet/cli.py",
        "if option.default is None:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-choices-unchecked",
        "sjet/cli.py",
        "if option.choices and value not in option.choices:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-ambiguous-prefix-accepted",
        "sjet/cli.py",
        "if len(names) > 1:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "chart-memo-bypassed",
        "sjet/prolongation.py",
        "if key not in chart._lifts:",
        "if True:",
        ("tests/test_types.py", "tests/test_prolongation.py"),
    ),
    Mutant(
        "series-orders-unchecked",
        "sjet/grassmann.py",
        "if self.order != other.order:",
        "if False:",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "field-sum-charts-unchecked",
        "sjet/fields.py",
        "if self.chart is not other.chart:",
        "if False:",
        ("tests/test_fields.py",),
    ),
    Mutant(
        "lift-parameters-not-held",
        "sjet/prolongation.py",
        "generic, phi.assignment.values(),",
        "generic, (),",
        ("tests/test_prolongation.py",),
    ),
    Mutant(
        "generator-parity-not-coerced",
        "sjet/grassmann.py",
        "parity=Parity(parity)",
        "parity=parity",
        ("tests/test_algebra.py",),
    ),
    Mutant(
        "empty-chart-accepted",
        "sjet/geometry.py",
        "if not coordinates:",
        "if False:",
        ("tests/test_geometry.py",),
    ),
)


def _run_tests(src: Path, tests) -> bool:
    """Whether the test files pass against the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        + list(tests),
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for mutant in chosen:
        count = (ROOT / "src" / mutant.file).read_text().count(mutant.snippet)
        if count != 1:
            print(
                f"error: {mutant.name}: the snippet occurs {count} times in "
                f"src/{mutant.file}, not once: {mutant.snippet!r}",
                file=sys.stderr,
            )
            return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", src, ignore=ignore)
        every_test = sorted({t for m in chosen for t in m.tests})
        if not _run_tests(src, every_test):
            print("error: the tests fail on the unchanged sources", file=sys.stderr)
            return 1
        for mutant in chosen:
            path = src / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.snippet, mutant.replacement))
            caught = not _run_tests(src, mutant.tests)
            path.write_text(original)
            print(f"{'caught' if caught else 'SURVIVED'}: {mutant.name}", flush=True)
            if not caught:
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
