"""End-to-end and per-layer benchmark of the sjet command line.

Run from the repository root:

    python3 bench/run.py --workload cli-small --seed 0 --seconds 30 --trace 0

``--trace 0`` builds the seeded corpus, then runs its commands as
``python -m sjet.cli ...`` subprocesses in a closed loop with one client,
whole cycles at a time, for about ``--seconds``. Every output is checked
against the pinned digests in ``bench/pins.json``. ``--trace 1`` runs the
same commands in this process through ``sjet.cli.run`` with spans around
each layer, and measures interpreter start and import separately.
``--workload all`` runs every workload in turn. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_COMMANDS = 100  # so that at least 10 samples lie beyond p90
COMMAND_TIMEOUT_S = 20
RUN_LIMIT_S = 150  # timing stops by then (a run must end within 180 s)
SPANS_DIR = ROOT / ".bench_spans"  # the last traced pass of each workload
DEFAULT_PINS = BENCH / "pins.json"

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cmds_per_s", "1/s"),
    ("cpu_ms_per_cmd", "ms"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "1"),
    ("setup_s", "s"),
)
IMPORT_MODULES = (
    "sjet", "sjet.errors", "sjet.grassmann", "sjet.geometry", "sjet.prolongation",
    "sjet.fields", "sjet.dsl", "sjet.printer", "sjet.latex", "sjet.cli",
)
# (metric, unit, span name, field) for metrics read off the span summary
SPAN_METRICS = (
    ("cli.run.ms", "ms", "cli.run", "ms"),
    ("cli.run.self_ms", "ms", "cli.run", "self_ms"),
    ("dsl.parse.ms", "ms", "dsl.parse", "ms"),
    ("dsl.parse.self_ms", "ms", "dsl.parse", "self_ms"),
    ("grassmann.pow.ms", "ms", "grassmann.pow", "ms"),
    ("grassmann.pow.calls", "count", "grassmann.pow", "calls"),
    ("grassmann.series_compose.ms", "ms", "grassmann.series_compose", "ms"),
    ("grassmann.series_compose.calls", "count", "grassmann.series_compose", "calls"),
    ("grassmann.substitute.ms", "ms", "grassmann.substitute", "ms"),
    ("grassmann.substitute.calls", "count", "grassmann.substitute", "calls"),
    ("grassmann.partial.ms", "ms", "grassmann.partial", "ms"),
    ("grassmann.partial.calls", "count", "grassmann.partial", "calls"),
    ("geometry.compose.self_ms", "ms", "geometry.compose", "self_ms"),
    ("geometry.compose.calls", "count", "geometry.compose", "calls"),
    ("geometry.jet_of_curve.ms", "ms", "geometry.jet_of_curve", "ms"),
    ("prolongation.prolong_morphism.self_ms", "ms", "prolongation.prolong_morphism", "self_ms"),
    ("prolongation.prolong_morphism.calls", "count", "prolongation.prolong_morphism", "calls"),
    ("prolongation.antitangent_morphism.self_ms", "ms",
     "prolongation.antitangent_morphism", "self_ms"),
    ("prolongation.antitangent_morphism.calls", "count",
     "prolongation.antitangent_morphism", "calls"),
    ("prolongation.interchange.ms", "ms", "prolongation.interchange", "ms"),
    ("prolongation.homothety.ms", "ms", "prolongation.homothety", "ms"),
    ("prolongation.prolong_chart.ms", "ms", "prolongation.prolong_chart", "ms"),
    ("prolongation.weight_report.ms", "ms", "prolongation.weight_report", "ms"),
    ("fields.field_init.ms", "ms", "fields.field_init", "ms"),
    ("fields.field_init.calls", "count", "fields.field_init", "calls"),
    ("fields.apply.self_ms", "ms", "fields.apply", "self_ms"),
    ("fields.apply.calls", "count", "fields.apply", "calls"),
    ("fields.bracket.self_ms", "ms", "fields.bracket", "self_ms"),
    ("fields.bracket.calls", "count", "fields.bracket", "calls"),
    ("fields.canonical_fields.self_ms", "ms", "fields.canonical_fields", "self_ms"),
    ("fields.verify_relations.self_ms", "ms", "fields.verify_relations", "self_ms"),
    ("printer.render.ms", "ms", "printer.render", "ms"),
    ("latex.emit_latex.ms", "ms", "latex.emit_latex", "ms"),
)
PER_LAYER = (
    (("cli.interp_ms", "ms"), ("cli.import_ms", "ms"))
    + tuple((f"import.{m}_us", "us") for m in IMPORT_MODULES)
    + tuple((name, unit) for name, unit, _, _ in SPAN_METRICS)
    + (
        ("dsl.bytes_in", "B"),
        ("grassmann.series_compose.terms_out", "count"),
        ("grassmann.partial.nonzero_ratio", "1"),
        ("fields.max_coords", "count"),
        ("render.bytes_out", "B"),
        ("trace.overhead_ratio", "1"),
    )
)


# -- statistics -----------------------------------------------------------------


def tail_percentile(samples, q: float = 0.9) -> float:
    """The q-quantile as the sample at rank ceil(q*n).

    At least ``n - ceil(q*n)`` samples lie beyond it: 10 or more for q = 0.9
    once n >= 100.
    """
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- outputs and their pins -----------------------------------------------------


def count_terms(stdout: bytes) -> int:
    """Output size in terms: one per non-empty line plus one per ' + '/' - '."""
    lines = sum(1 for line in stdout.splitlines() if line.strip())
    return lines + stdout.count(b" + ") + stdout.count(b" - ")


@dataclass
class Outcome:
    exit_code: int
    stdout: bytes
    stderr: bytes

    @property
    def pin(self) -> list:
        return [hashlib.sha256(self.stdout).hexdigest(), self.exit_code, count_terms(self.stdout)]


def load_pins(path: Path, workload: str, seed: int) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(f"{workload}/{seed}")


class Checker:
    """Judges each outcome and remembers each command's first output.

    A command fails when its exit code is not the expected one, when it
    prints a traceback, when its stdout digest, term count or exit code
    differs from the pin, or when its output differs from its own earlier
    output in the same run. The pinned exit code of a known defect is the
    crash, so only the expected exit code is checked for those.
    """

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.first: dict[str, list] = {}
        self.failures: dict[str, tuple[str, str]] = {}  # key -> (kind, reason)

    def check(self, cmd: corpus.Command, out: Outcome) -> bool:
        reasons = []
        if out.exit_code != cmd.expect_exit:
            reasons.append(f"exit {out.exit_code}, expected {cmd.expect_exit}")
        if b"Traceback" in out.stderr:
            reasons.append("traceback on stderr")
        got = out.pin
        if self.pins is not None:
            pinned = self.pins.get(cmd.key)
            if pinned is None:
                reasons.append("no pinned output")
            else:
                if got[0] != pinned[0]:
                    reasons.append("stdout sha256 differs from the pin")
                if got[2] != pinned[2]:
                    reasons.append(f"{got[2]} terms, pinned {pinned[2]}")
                if got[1] != pinned[1] and cmd.kind not in corpus.KNOWN_DEFECTS:
                    reasons.append(f"exit {got[1]}, pinned {pinned[1]}")
        if self.first.setdefault(cmd.key, got) != got:
            reasons.append("output differs from an earlier run of the command")
        if reasons:
            self.failures.setdefault(cmd.key, (cmd.kind, "; ".join(reasons)))
        return not reasons

    @property
    def correct(self) -> bool:
        """True when only the known defects failed."""
        return all(kind in corpus.KNOWN_DEFECTS for kind, _ in self.failures.values())

    def report(self, label: str):
        for key, (kind, reason) in self.failures.items():
            known = " (known defect, ROADMAP item 2)" if kind in corpus.KNOWN_DEFECTS else ""
            print(f"FAIL {label}: {key}: {reason}{known}", file=sys.stderr)


# -- processes ------------------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    outcome: Outcome
    ok: bool = True


def spawn(argv, env, cwd, timeout: float = COMMAND_TIMEOUT_S) -> Sample:
    """Run one process to its exit with both pipes drained; rusage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(out_fd, selectors.EVENT_READ)
            sel.register(err_fd, selectors.EVENT_READ)
            while sel.get_map():
                left = start + timeout - time.perf_counter()
                if left <= 0:
                    raise TimeoutError(f"{' '.join(argv)} ran longer than {timeout} s")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    outcome = Outcome(proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]))
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, outcome)


def child_env(pycache: Path) -> dict:
    """The children's environment: this checkout's sources, a private bytecode cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SJET_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def cli_argv(cmd: corpus.Command) -> list[str]:
    return [sys.executable, "-m", "sjet.cli", *cmd.argv]


# -- set-up -----------------------------------------------------------------------


@dataclass
class Setup:
    corpus: corpus.Corpus
    docs: Path
    pycache: Path
    env: dict
    pins: dict | None


def set_up(workload: str, seed: int, where: Path, pins_path: Path) -> Setup:
    """Corpus and commands from the seed, documents on disk, pins, warm bytecode."""
    built = corpus.build(workload, seed)
    docs = where / "docs"
    docs.mkdir(parents=True)
    for name, data in built.documents.items():
        (docs / name).write_bytes(data)
    pins = load_pins(pins_path, workload, seed)
    pycache = where / "pycache"
    env = child_env(pycache)
    good = next(cmd for cmd in built.commands if cmd.expect_exit == 0)
    warm = spawn([sys.executable, "-m", "sjet.cli", "check", good.argv[1]], env, docs)
    if warm.outcome.exit_code != 0:
        raise SystemExit(f"error: warming the bytecode cache failed:\n"
                         f"{warm.outcome.stderr.decode(errors='replace')}")
    return Setup(built, docs, pycache, env, pins)


def timed_set_ups(workload, seed, work: Path, pins_path: Path, count: int):
    """``count`` fresh set-ups; the last one and the time each took."""
    times = []
    for i in range(count):
        start = time.perf_counter()
        setup = set_up(workload, seed, work / f"setup{i}", pins_path)
        times.append(time.perf_counter() - start)
    return setup, times


def pyc_count(pycache: Path) -> int:
    return sum(len(files) for _, _, files in os.walk(pycache))


# -- the end-to-end run -----------------------------------------------------------


def end_to_end(setup: Setup, seconds: float, checker: Checker, setup_times, meta):
    """Whole cycles in a closed loop, one client, stopping at the cycle
    boundary nearest to ``seconds`` once at least MIN_COMMANDS have run."""
    samples: list[Sample] = []
    pyc_before = pyc_count(setup.pycache)
    start = time.perf_counter()
    cycles = 0
    while True:
        for cmd in setup.corpus.commands:
            if time.perf_counter() - start > RUN_LIMIT_S:
                break  # only a far slower program gets here, mid-cycle
            sample = spawn(cli_argv(cmd), setup.env, setup.docs)
            sample.ok = checker.check(cmd, sample.outcome)
            samples.append(sample)
        cycles += 1
        elapsed = time.perf_counter() - start
        per_cycle = elapsed / cycles
        if elapsed + per_cycle > RUN_LIMIT_S:
            break
        if len(samples) >= MIN_COMMANDS and elapsed + per_cycle / 2 >= seconds:
            break
    span = time.perf_counter() - start
    meta.update(cycles=cycles, timed_s=round(span, 3),
                pyc_written_while_timed=pyc_count(setup.pycache) - pyc_before)
    if len(samples) < MIN_COMMANDS:
        print(f"warning: only {len(samples)} commands ran; fewer than 10 lie beyond p90",
              file=sys.stderr)
    walls = [s.wall_s * 1000 for s in samples]
    failed = sum(not s.ok for s in samples)
    metrics = {
        "latency_p50_ms": statistics.median(walls),
        "latency_p90_ms": tail_percentile(walls, 0.9),
        "cmds_per_s": len(samples) / span,
        "cpu_ms_per_cmd": sum(s.cpu_s for s in samples) * 1000 / len(samples),
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024,
        "fail_ratio": failed / len(samples),
        "setup_s": statistics.median(setup_times),
    }
    return metrics, len(samples), failed


# -- the traced run -----------------------------------------------------------------

_IMPORTTIME = re.compile(rb"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def start_up_metrics(setup: Setup, repeats: int = 7) -> dict[str, float]:
    """Bare interpreter start, `import sjet.cli` on top of it, and -X importtime."""
    def median_ms(argv):
        return statistics.median(
            spawn(argv, setup.env, setup.docs).wall_s * 1000 for _ in range(repeats)
        )

    interp = median_ms([sys.executable, "-c", "pass"])
    imported = median_ms([sys.executable, "-c", "import sjet.cli"])
    self_us: dict[str, list[int]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(5):
        err = spawn([sys.executable, "-X", "importtime", "-c", "import sjet.cli"],
                    setup.env, setup.docs).outcome.stderr
        for line in err.splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(3).decode() in self_us:
                self_us[match.group(3).decode()].append(int(match.group(1)))
    metrics = {"cli.interp_ms": interp, "cli.import_ms": imported - interp}
    for module, values in self_us.items():
        metrics[f"import.{module}_us"] = statistics.median(values) if values else 0
    return metrics


def run_in_process(cli, cmd: corpus.Command) -> Outcome:
    """``sjet.cli.run`` on one command, with what ``main`` would have printed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            result = cli.run(list(cmd.argv))
        except Exception as exc:  # what the process would print before exit 1
            return Outcome(1, b"", f"Traceback: {type(exc).__name__}".encode())
    stdout = (result.payload + "\n").encode() if result.payload else b""
    return Outcome(result.exit_code, stdout, b"")


def in_process_pass(cli, setup: Setup, checker: Checker, tracer=None):
    """One pass over the cycle; returns (seconds, commands, failed)."""
    run = cli.run
    failed = 0
    start = time.perf_counter()
    try:
        if tracer is not None:
            cli.run = tracer.wrap("cli.run", run)
        for i, cmd in enumerate(setup.corpus.commands):
            if tracer is not None:
                tracer.command = i
            out = run_in_process(cli, cmd)
            failed += not checker.check(cmd, out)
            if tracer is not None:
                tracer.counts["render.bytes_out"] += len(out.stdout)
    finally:
        cli.run = run
    return time.perf_counter() - start, len(setup.corpus.commands), failed


def per_layer(setup: Setup, seconds: float, checker: Checker, work: Path):
    """Start-up metrics, then alternating untraced and traced in-process passes
    until ``seconds`` have gone by; each metric is the median over passes."""
    deadline = time.perf_counter() + seconds
    metrics = start_up_metrics(setup)
    sys.pycache_prefix = str(work / "pycache-in-process")
    sys.path.insert(0, str(ROOT / "src"))
    import sjet.cli as cli

    plain, traced, rows = [], [], []
    attempted = failed = 0
    cwd = os.getcwd()
    os.chdir(setup.docs)
    try:
        # stop before a pair of passes that would end after the deadline
        while not traced or time.perf_counter() + plain[-1] + traced[-1] < deadline:
            seconds_plain, n, bad = in_process_pass(cli, setup, checker)
            tracer = spans.Tracer()
            with spans.tracing(tracer):
                seconds_traced, n2, bad2 = in_process_pass(cli, setup, checker, tracer)
            plain.append(seconds_plain)
            traced.append(seconds_traced)
            attempted += n + n2
            failed += bad + bad2
            rows.append(layer_row(tracer))
    finally:
        os.chdir(cwd)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"{setup.corpus.workload}-seed{setup.corpus.seed}.json"
    tracer.dump(spans_file, [cmd.key for cmd in setup.corpus.commands])
    print(f"# spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    for name, unit in PER_LAYER:
        if name in rows[0]:
            value = statistics.median(row[name] for row in rows)
            metrics[name] = round(value) if unit in ("count", "B") else value
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, attempted, failed


def layer_row(tracer: spans.Tracer) -> dict[str, float]:
    summary = tracer.summary()
    row = {}
    for metric, _, span, field in SPAN_METRICS:
        row[metric] = summary[span][field] if span in summary else 0
    partial_calls = row["grassmann.partial.calls"]
    row["grassmann.partial.nonzero_ratio"] = (
        tracer.counts["grassmann.partial.nonzero"] / partial_calls if partial_calls else 0
    )
    for name in ("dsl.bytes_in", "grassmann.series_compose.terms_out", "render.bytes_out"):
        row[name] = tracer.counts[name]
    row["fields.max_coords"] = tracer.max_coords
    return row


# -- metadata -------------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def load_warning(when: str, load: float, nproc: int):
    if load > nproc:
        print(f"warning: load average {load:.2f} {when} the run exceeds nproc {nproc}; "
              f"timings are unreliable", file=sys.stderr)


# -- entry points -------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, pins_path, work) -> dict:
    setup, setup_times = timed_set_ups(workload, seed, work / workload, pins_path,
                                       1 if trace else SETUPS)
    checker = Checker(setup.pins)
    meta = {"workload": workload, "seed": seed, "pinned": setup.pins is not None,
            "commands_per_cycle": len(setup.corpus.commands),
            "corpus_sha256": setup.corpus.digest()}
    if trace:
        metrics, attempted, failed = per_layer(setup, seconds, checker, work)
        units = dict(PER_LAYER)
    else:
        metrics, attempted, failed = end_to_end(setup, seconds, checker, setup_times, meta)
        units = dict(END_TO_END)
    checker.report(workload)
    print(f"# {json.dumps(meta)}")
    for name, value in metrics.items():
        print(f"{workload:12s} {name:42s} {value:14.4f} {units[name]}")
    return {"correct": checker.correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def write_pins(workloads, seed, pins_path: Path, out: Path, work: Path):
    """Run each command once and record (stdout sha256, exit code, terms)."""
    table = json.loads(out.read_text()) if out.exists() else {}
    for workload in workloads:
        setup = set_up(workload, seed, work / workload, pins_path)
        checker = Checker(None)
        pins = {}
        for cmd in setup.corpus.commands:
            outcome = spawn(cli_argv(cmd), setup.env, setup.docs).outcome
            checker.check(cmd, outcome)
            pins[cmd.key] = outcome.pin
        checker.report(workload)
        table[f"{workload}/{seed}"] = pins
        print(f"pinned {len(pins)} commands of {workload} seed {seed}")
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", type=Path, default=DEFAULT_PINS,
                        help="pinned digests to check against (default: bench/pins.json)")
    parser.add_argument("--write-pins", type=Path, metavar="PATH",
                        help="record this commit's outputs for --seed into PATH and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sjet" / "cli.py").is_file():
        print(f"error: no sjet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    work = ROOT / ".bench_work" / str(os.getpid())
    nproc = os.cpu_count() or 1
    try:
        if args.write_pins:
            write_pins(workloads, args.seed, args.pins, args.write_pins, work)
            return 0
        load_before = os.getloadavg()[0]
        load_warning("before", load_before, nproc)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.pins, work)
                   for w in workloads}
        load_after = os.getloadavg()[0]
        load_warning("after", load_after, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("# " + json.dumps({
        "python": sys.version.split()[0], "nproc": nproc, "load_before": load_before,
        "load_after": load_after, "commit": git_commit(), "seed": args.seed,
        "src_lines": src_lines(),
    }))
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
