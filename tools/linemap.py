"""Print the lines of src/gerbecalc that no corpus call reaches.

Runs every call of ``CALLS`` in ``tests/test_outputs.py`` in-process under
the stdlib ``trace`` module, the corpus module's own import included, so
that the lines run when a module loads count as reached.  Then, for each
module of the package, it prints how many of its executable lines, as
``trace`` counts them, the corpus reached, and the ranges of those it did
not.  A range runs from one unreached executable line to the last one
before the next reached line.

    python tools/linemap.py

It needs only the standard library and the corpus's own imports, and it
lies outside the test paths, so pytest never collects it.
"""

import importlib
import pathlib
import sys
import trace

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gerbecalc"


def run_corpus() -> None:
    corpus = importlib.import_module("test_outputs")
    for call in corpus.CALLS:
        corpus._run(*call)


def unreached_ranges(executable: list[int], reached: set[int]) -> list[str]:
    """The runs of unreached lines among the sorted executable ones, as
    "a" or "a-b"."""
    ranges: list[list[int]] = []
    previous_missed = False
    for line in executable:
        missed = line not in reached
        if missed and previous_missed:
            ranges[-1][1] = line
        elif missed:
            ranges.append([line, line])
        previous_missed = missed
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in ranges]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(run_corpus)
    counts = tracer.results().counts
    total_reached = total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        # line 0 is the module's own start, not a line of its text
        executable = sorted(n for n in trace._find_executable_linenos(str(path)) if n > 0)
        reached = {line for (name, line), _ in counts.items() if name == str(path)}
        reached &= set(executable)
        total_reached += len(reached)
        total_lines += len(executable)
        missed = unreached_ranges(executable, reached)
        print(f"{path.name}: {len(reached)} of {len(executable)} lines reached")
        if missed:
            print("  not reached: " + ", ".join(missed))
    print(f"total: {total_reached} of {total_lines} lines reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
