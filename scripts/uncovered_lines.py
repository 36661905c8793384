#!/usr/bin/env python3
"""Run the tier-1 suite in this process and print every line of src/snfc/*.py
that it never ran, as `file:line: text`, then a count.

A line is executable when some code object compiled from the file maps an
instruction to it (`co_lines()`), so declarations such as `nonlocal` and
`global`, which compile to no instruction, are never listed.  Lines are
recorded through `sys.monitoring` where it exists (Python 3.12 on), each
location switching itself off at its first event, and through `sys.settrace`
before that, several times slower.  Lines that only the suite's subprocesses
run count as never run.

Each file's text is read before the suite starts, and its executable lines and
the printed text come from that snapshot, the code the suite imported.  A file
whose text differs after the run is named, since its listing may be wrong.
The exit status is pytest's when that is not 0, else 1 when a file changed,
else 0; the listing is information only.

Usage: python scripts/uncovered_lines.py [pytest arguments]
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "snfc")


def read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def executable_lines(path: str, text: str) -> set[int]:
    stack = [compile(text, path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 before a module's first line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def record(ran: dict[str, set[int]]) -> None:
    """Add each (file, line) of `ran`'s files that runs from now on to `ran`."""
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        tool = monitoring.COVERAGE_ID

        def line(code, number):
            seen = ran.get(code.co_filename)
            if seen is not None:
                seen.add(number)
            return monitoring.DISABLE

        monitoring.use_tool_id(tool, "uncovered_lines")
        monitoring.register_callback(tool, monitoring.events.LINE, line)
        monitoring.set_events(tool, monitoring.events.LINE)
        return

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.settrace(call)


def main() -> int:
    paths = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py"))
    texts = {path: read(path) for path in paths}
    ran = {path: set() for path in paths}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    record(ran)  # before pytest imports snfc, so module-level lines count too
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *sys.argv[1:]])
    sys.settrace(None)
    missed = 0
    for path in paths:
        text = texts[path].splitlines()
        for number in sorted(executable_lines(path, texts[path]) - ran[path]):
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{number}: {text[number - 1].strip()}")
    print(f"{missed} executable lines of src/snfc never ran")
    changed = [path for path in paths if read(path) != texts[path]]
    for path in changed:
        print(f"{os.path.relpath(path, ROOT)} changed while the suite ran: its lines are those from before")
    return int(status) or int(bool(changed))


if __name__ == "__main__":
    sys.exit(main())
