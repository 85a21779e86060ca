"""Line census: the executable lines of `src/misdelay` that no test runs.

Runs the tier-1 suite in this process under `sys.settrace`, recording
each line executed in a file under `src/misdelay`, and prints every
executable line, as compiled, that was never reached, one
`path:line: source` per line, followed by their count.  Extra
arguments go to pytest.  Run from the repository root:

    python tests/census.py [pytest args]

The package is imported after the tracer starts, so module-level lines
count too.  The tracer slows the suite about threefold.  This is a
tool, not a test: pytest does not collect it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "misdelay"


def executable_lines(path: Path) -> set:
    """Line numbers the compiled module and its nested code run."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)
                           - ran.get(str(path), set())):
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
    print(f"{unrun} executable lines unrun (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
