"""Benchmark of the gerbecalc command line on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gw-verify --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every call is its own ``python -m gerbecalc.cli``
process, one at a time (a closed loop with one client), and the run
reports the end-to-end metrics.  With ``--trace 1`` the same calls run
in this process, alternately plain and with every layer wrapped by
``tracing.Tracer``, and the run reports the per-layer metrics and the
tracing overhead.  Either way every output is checked by ``checks`` and
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come
from BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable

import checks
import inputs

SETUPS = 3
CALL_TIMEOUT_S = 60.0
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Op:
    """One CLI call of a round: subcommand and flags, input, output check."""

    name: str
    argv: tuple[str, ...]
    config: dict
    check: Callable[[dict, dict], None]


# Each workload is a round of calls built from the seed.  The seed picks
# values and shapes; sizes are fixed so that every seed costs the same.


def gw_verify(seed: int) -> list[Op]:
    rng = Random(seed)
    return [
        Op(f"verify-r{r}", ("verify",), inputs.gw_theory(rng, r, classes, Fraction(1)), checks.check_verify)
        for r, classes in ((4, 4), (6, 3), (8, 3))
    ]


def gw_decompose(seed: int) -> list[Op]:
    # Only the smallest table goes through the thread pool: on one CPU its
    # two threads take 1 to 1.6 times as long as one, from call to call.
    rng = Random(seed)
    return [
        Op(
            f"decompose-r{r}-p{workers}",
            ("decompose", "--parallel", str(workers)),
            inputs.gw_theory(rng, r, classes, Fraction(1, 2)),
            partial(checks.check_decompose, sample_seed=seed),
        )
        for r, classes, workers in ((3, 4, 2), (4, 4, 1), (6, 3, 1))
    ]


def fiber_cycles(seed: int) -> list[Op]:
    rng = Random(seed)
    graphs = [
        ("banana5-r12", inputs.banana(rng, 12, 5)),
        ("necklace211-r24", inputs.necklace(rng, 24, [2, 1, 1])),
        ("banana4-r30", inputs.banana(rng, 30, 4)),
    ]
    return [Op(name, ("fiber-count",), config, checks.check_fiber_count) for name, config in graphs]


def graph_trees(seed: int) -> list[Op]:
    tree = inputs.tree_with_cycles(Random(seed), 3, 150, 2, [2, 3])
    return [
        Op("tree-picard", ("picard-torsion",), tree, checks.check_picard_torsion),
        Op(
            "tree-lifts-loop",
            ("count-lifts", "--mode", "loop-only"),
            tree,
            partial(checks.check_count_lifts, mode="loop-only"),
        ),
        Op(
            "tree-lifts-all",
            ("count-lifts", "--mode", "all-edges"),
            tree,
            partial(checks.check_count_lifts, mode="all-edges"),
        ),
        Op("tree-fiber", ("fiber-count",), tree, checks.check_fiber_count),
    ]


WORKLOADS = {
    "gw-verify": gw_verify,
    "gw-decompose": gw_decompose,
    "fiber-cycles": fiber_cycles,
    "graph-trees": graph_trees,
}


class Ledger:
    """Accounts every attempted call and checks the outputs once.

    The first output of each op is checked against the independent
    computation; every later output of the same op must be byte-identical
    to it.  A call fails when it exits nonzero, times out, or its output
    fails either test.
    """

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self.reference: dict[int, bytes] = {}
        self.calls: list[tuple[int, bytes | None]] = []

    def offer_reference(self, index: int, stdout: bytes | None) -> None:
        if stdout is not None and index not in self.reference:
            self.reference[index] = stdout

    def record(self, index: int, stdout: bytes | None) -> None:
        self.offer_reference(index, stdout)
        self.calls.append((index, None if stdout is None else hashlib.sha256(stdout).digest()))

    def settle(self) -> tuple[int, int, bool, list[str]]:
        problems = []
        passed: dict[int, bytes] = {}
        for index, stdout in sorted(self.reference.items()):
            op = self.ops[index]
            try:
                op.check(op.config, json.loads(stdout))
            except Exception as exc:  # any malformed document is a failed check
                problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
            else:
                passed[index] = hashlib.sha256(stdout).digest()
        failed = 0
        for index, digest in self.calls:
            if digest is None:
                failed += 1
            elif passed.get(index) != digest:
                failed += 1
                if index in passed:
                    problems.append(f"{self.ops[index].name}: stdout differs between calls")
        return len(self.calls), failed, not problems, sorted(set(problems))


# ------------------------------------------------------------- end to end


@dataclass(frozen=True)
class CallResult:
    wall_s: float
    max_rss_kb: int
    stdout: bytes | None  # None when the call exited nonzero or timed out


def write_inputs(workdir: Path, ops: list[Op]) -> list[str]:
    paths = []
    for op in ops:
        path = workdir / f"{op.name}.json"
        path.write_text(json.dumps(op.config, indent=1), encoding="utf-8")
        paths.append(str(path.relative_to(Path.cwd())))
    return paths


def wait_timed(proc: subprocess.Popen, start: float):
    """Wait for proc to exit, killing it after CALL_TIMEOUT_S.

    The wait blocks on a pidfd, so the wall time is exact; Popen.wait with
    a timeout polls in sleeps of up to 50 ms.  Returns the wall time since
    start, the child's own rusage and whether it ended in time.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], CALL_TIMEOUT_S)
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, bool(ready)


def spawn(root: Path, env: dict, argv: list[str], workdir: Path) -> CallResult:
    """Run one CLI process; its peak RSS comes from its own rusage."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gerbecalc.cli", *argv],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
    wall, usage, ended = wait_timed(proc, start)
    stdout = out_path.read_bytes() if ended and proc.returncode == 0 else None
    if stdout is None:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
        print(f"call {argv} failed (exit {proc.returncode}): {tail}", file=sys.stderr)
    return CallResult(wall, usage.ru_maxrss, stdout)


# A fixed piece of pure-Python work that imports nothing from gerbecalc.  It
# is the same on every commit, so how long it takes shows only how fast the
# shared host runs at that moment.  Call times are divided by it, and the
# quotients are scaled back to seconds by REFERENCE_S, its time on the
# machine of the reference figures in README.md at that machine's base speed.
REFERENCE_CODE = """
from fractions import Fraction
import json
table = {}
for i in range(20000):
    table[(i % 97, i % 89, i // 97)] = Fraction(i % 13 + 1, i % 11 + 1) * (i % 7 - 3)
total = Fraction(0)
for key in sorted(table):
    if key[0] == 3:
        total += table[key]
print(len(json.dumps({str(k): str(v) for k, v in table.items()})), total)
"""
REFERENCE_S = 0.15


def reference(env: dict) -> float:
    """Wall time of one REFERENCE_CODE process, spawned like a CLI call."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", REFERENCE_CODE],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    wall, _, ended = wait_timed(proc, start)
    if not ended or proc.returncode != 0:
        raise RuntimeError(f"the reference process failed (exit {proc.returncode})")
    return wall


def run_end_to_end(root: Path, workdir: Path, build: Callable, seed: int, seconds: float):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # The run is pinned to one CPU, which every call inherits from this
    # process.  There the two threads of --parallel 2 hand over the GIL
    # without waking an idle virtual CPU, whose wake-up time the host
    # decides.  A reference runs first and after every set-up and round,
    # so that each of them lies between two references.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    references = [reference(env)]

    def pace() -> float:
        references.append(reference(env))
        return (references[-2] + references[-1]) / 2

    setups: list[float] = []  # in units of the reference

    def set_up() -> tuple[list[Op], list[str], CallResult]:
        start = perf_counter()
        ops = build(seed)
        paths = write_inputs(workdir, ops)
        warm = spawn(root, env, [*ops[0].argv, "--input", paths[0]], workdir)
        elapsed = perf_counter() - start
        setups.append(elapsed / pace())
        return ops, paths, warm

    # Set-ups are spread over the run so that one slow spell of a shared
    # machine does not decide their median.
    ops, paths, warm = set_up()
    ledger = Ledger(ops)
    ledger.offer_reference(0, warm.stdout)
    walls: list[list[float]] = [[] for _ in ops]
    ratios: list[list[float]] = [[] for _ in ops]  # call time over its round's pace
    max_rss_kb = 0
    timed = last_round = 0.0
    # Only whole rounds run, and none starts that would end past --seconds
    # if it took as long as the round before.
    while not walls[0] or timed + last_round <= seconds:
        start = perf_counter()
        for index, (op, path) in enumerate(zip(ops, paths)):
            result = spawn(root, env, [*op.argv, "--input", path], workdir)
            ledger.record(index, result.stdout)
            walls[index].append(result.wall_s)
            max_rss_kb = max(max_rss_kb, result.max_rss_kb)
        round_pace = pace()
        for op_walls, op_ratios in zip(walls, ratios):
            op_ratios.append(op_walls[-1] / round_pace)
        last_round = perf_counter() - start
        timed += last_round
        if len(setups) < SETUPS and timed >= seconds * len(setups) / SETUPS:
            ledger.offer_reference(0, set_up()[2].stdout)
    while len(setups) < SETUPS:
        set_up()
    os.sched_setaffinity(0, cpus)

    # The host runs whole stretches of seconds to minutes up to 2 times
    # slower, and the reference slows with it: a call's time over the pace
    # of its round is what such stretches leave alone.  The median of
    # these quotients over the run leaves out single slow calls too.
    for op, op_walls in zip(ops, walls):
        print(
            f"{op.name}: {len(op_walls)} calls, best {min(op_walls):.3f} s, "
            f"median {statistics.median(op_walls):.3f} s",
            file=sys.stderr,
        )
    every = [w for op_walls in walls for w in op_walls]
    print(
        f"all calls: median {statistics.median(every):.3f} s, "
        f"{len(every) / timed:.3f} calls/s over {timed:.1f} s; "
        f"reference: median {statistics.median(references):.4f} s",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": REFERENCE_S * statistics.median(setups),
        "round_s": REFERENCE_S * sum(statistics.median(op_ratios) for op_ratios in ratios),
        "peak_rss_mb": max_rss_kb / 1024,
    }
    return ledger, metrics


# ----------------------------------------------------------------- traced


def call_in_process(cli, argv: list[str]) -> bytes | None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a crash is a failed call, as in a subprocess
            print(f"call {argv} raised {type(exc).__name__}: {exc}", file=sys.__stderr__)
            return None
    return out.getvalue().encode("utf-8") if status == 0 else None


def run_traced(root: Path, workdir: Path, build: Callable, seed: int, seconds: float):
    sys.path.insert(0, str(root / "src"))
    import tracing

    # One CPU, as each timed CLI call has.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = build(seed)
    paths = write_inputs(workdir, ops)
    argvs = [[*op.argv, "--input", path] for op, path in zip(ops, paths)]
    tracer = tracing.Tracer()
    cli = tracer.modules["cli"]
    ledger = Ledger(ops)

    def plain_round() -> float:
        elapsed = 0.0
        for index, argv in enumerate(argvs):
            tracer.clear_caches()
            start = perf_counter()
            stdout = call_in_process(cli, argv)
            elapsed += perf_counter() - start
            ledger.record(index, stdout)
        return elapsed

    def traced_round() -> float:
        elapsed = 0.0
        output_bytes = 0
        tracer.install()
        try:
            for index, argv in enumerate(argvs):
                tracer.clear_caches()
                start = perf_counter()
                stdout = call_in_process(cli, argv)
                elapsed += perf_counter() - start
                tracer.end_call()
                ledger.record(index, stdout)
                output_bytes += len(stdout or b"")
        finally:
            tracer.uninstall()
        rounds.append({**tracer.take_metrics(), "cli.output_bytes": output_bytes})
        return elapsed

    # Plain and traced rounds alternate which goes first, so that neither
    # always pays for the other's leftovers.
    overheads: list[float] = []
    rounds: list[dict] = []
    start = perf_counter()
    last_pair = 0.0
    while not rounds or perf_counter() - start + last_pair <= seconds:
        pair_start = perf_counter()
        if len(rounds) % 2:
            traced_s = traced_round()
            plain_s = plain_round()
        else:
            plain_s = plain_round()
            traced_s = traced_round()
        overheads.append(traced_s - plain_s)
        last_pair = perf_counter() - pair_start

    # median_low keeps counts whole: they repeat exactly from round to round.
    metrics = {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
    metrics["trace.overhead_s"] = statistics.median_low(overheads)
    return ledger, metrics


# ------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gerbecalc" / "cli.py").is_file():
        print("error: run from the root of a gerbecalc checkout (src/gerbecalc is missing)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workdir = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_end_to_end
        ledger, measured = run(root, workdir, WORKLOADS[args.workload], args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()

    attempted, failed, correct, problems = ledger.settle()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in units.items()
        if name in measured
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
