"""Lines of `src/rdplab` that tier-1, or one benchmark workload, never reaches.

Not a test module (pytest does not collect it).  Run it from the repository
root as

    python3 tests/line_coverage.py
    python3 tests/line_coverage.py --workload block_code

Without arguments it runs the tier-1 suite (`tests/`, as `python -m pytest
-q --continue-on-collection-errors` runs it) in this process under a
`sys.settrace` line tracer limited to `src/rdplab`.  With `--workload NAME`
it instead builds that workload of `perfbench/workloads.py` (imported, never
edited) at seed 1, runs its warm-up and then one pass of its ops in this
process; `cli_short` runs each command through `rdplab.cli.main`, as the
benchmark worker's in-process pass does.

It prints every executable line that was never reached, as `module:line
source`, then one summary line.  A line is executable when the compiled
module has code on it, so docstrings, comments, blank lines and the
continuation lines of a statement are not counted.  Code run in a
subprocess (the tier-1 tests that start `python -m rdplab.cli`, and every
`cli_short` op of the timed benchmark) is not traced here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rdplab"


def executable_lines(path: pathlib.Path) -> set[int]:
    """The lines that hold code of the compiled module at `path`."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        if code.co_name != "<module>":
            # a function's first line carries only its set-up, which raises
            # no line event; the line itself runs in the enclosing code
            lines.discard(code.co_firstlineno)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(run) -> dict[str, set[int]]:
    """The lines of each `src/rdplab` file that `run()` reaches."""
    prefix = str(SRC) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set())
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def run_tier1() -> None:
    import pytest

    code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print(f"tier-1 exit code {int(code)}")


def run_workload(name: str) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.build(name, 1, workdir, str(SRC.parent))
        wl.warm_up()
        for op in wl.ops:
            if name == "cli_short":
                import rdplab.cli

                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    rdplab.cli.main(wl.in_process[op.id])
            else:
                op.run()
    print(f"workload {name}: {len(wl.ops)} ops, one pass")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a perfbench workload to run instead of tier-1")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC.parent))  # trace this checkout's rdplab, by its absolute path
    reached = trace(lambda: run_workload(args.workload) if args.workload else run_tier1())
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        unreached = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        missed += len(unreached)
        for line in unreached:
            print(f"{path.name}:{line} {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/rdplab never reached")


if __name__ == "__main__":
    main()
