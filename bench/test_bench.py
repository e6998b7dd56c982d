"""Tests of the benchmark's own rules.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402


def test_p90_leaves_at_least_ten_samples_beyond_it():
    rng = random.Random(1)
    for n in range(run.MIN_COMMANDS, 500):
        samples = [rng.random() for _ in range(n)]
        p90 = run.tail_percentile(samples, 0.9)
        assert sum(s > p90 for s in samples) >= 10
        assert sum(s <= p90 for s in samples) >= 0.9 * n


def test_injected_wrong_digest_is_a_failure_that_names_the_command():
    cmd = corpus.Command(("prolong", "doc.sman", "--morphism", "f", "--order", "2"), 0, "prolong")
    out = run.Outcome(0, b"y@0 = x@0^2\ny@1 = 2*x@0*x@1\n", b"")
    assert run.Checker({cmd.key: out.pin}).check(cmd, out)

    wrong = ["0" * 64] + out.pin[1:]
    checker = run.Checker({cmd.key: wrong})
    assert not checker.check(cmd, out)
    assert "sha256" in checker.failures[cmd.key][1]
    assert not checker.correct


def test_exit_code_traceback_and_drift_are_failures():
    cmd = corpus.Command(("check", "doc.sman"), 0, "check")
    checker = run.Checker(None)
    assert not checker.check(cmd, run.Outcome(1, b"", b"Traceback (most recent call last):"))
    cmd2 = corpus.Command(("check", "other.sman"), 0, "check")
    assert checker.check(cmd2, run.Outcome(0, b"ok\n", b""))
    assert not checker.check(cmd2, run.Outcome(0, b"ok!\n", b""))
    assert set(checker.failures) == {cmd.key, cmd2.key}


def test_only_known_defects_may_fail_in_a_correct_run():
    checker = run.Checker(None)
    crash = run.Outcome(1, b"", b"Traceback (most recent call last):")
    for kind in sorted(corpus.KNOWN_DEFECTS):
        assert not checker.check(corpus.Command(("check", f"bad-{kind}.sman"), 2, kind), crash)
    assert checker.correct
    checker.check(corpus.Command(("check", "bad-syntax.sman"), 2, "bad-syntax"), crash)
    assert not checker.correct


def test_same_seed_gives_an_identical_corpus_and_another_seed_a_different_one():
    for workload in corpus.WORKLOADS:
        a, b = corpus.build(workload, 7), corpus.build(workload, 7)
        assert a.documents == b.documents
        assert a.commands == b.commands
        assert a.digest() == b.digest()
        assert corpus.build(workload, 8).digest() != a.digest()


def test_corpus_does_not_depend_on_hash_randomisation():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import corpus; "
        "print(*(corpus.build(w, 3).digest() for w in corpus.WORKLOADS))"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                              capture_output=True, text=True, env=env, check=True)
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_every_cycle_has_distinct_commands_and_the_known_defects():
    for workload in corpus.WORKLOADS:
        built = corpus.build(workload, 0)
        kinds = [cmd.kind for cmd in built.commands]
        assert corpus.KNOWN_DEFECTS <= set(kinds)
        assert len(built.commands) >= 30
        assert len({cmd.key for cmd in built.commands}) == len(built.commands)
    small = [cmd.kind for cmd in corpus.build("cli-small", 0).commands]
    assert set(corpus.ERROR_SLICE) <= set(small)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
