"""List the lines of xplab that neither the tests nor the benchmark commands run.

Usage, from the repository root::

    python3 tools/unexercised.py

In one process it runs the Tier-1 suite (``pytest -p no:cacheprovider
tests``) and then every command of ``tools/dump_outputs.py`` (each
benchmark template, in process, through ``xplab.cli:main``), with a
``sys.settrace`` tracer that records the lines executed in ``src/xplab``
frames only.  It then prints, module by module, each executable line that
never ran.  An executable line is the start line of some instruction of the
module's compiled code objects.  Tracing slows the suite several times over.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xplab"


def executable_lines(path: Path) -> set[int]:
    """Start lines of every instruction in the code objects compiled from ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


@contextlib.contextmanager
def traced(prefix: str, hits: set[tuple[str, int]]):
    """Add ``(file, line)`` to ``hits`` for every line run in a file under
    ``prefix`` while the block runs; a function's call counts for the line it
    starts on.  The previous trace function is restored afterwards."""

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def missed(path: Path, hits: set[tuple[str, int]]) -> list[int]:
    """The executable lines of ``path`` that are not in ``hits``, in order."""
    ran = {line for name, line in hits if name == str(path)}
    return sorted(executable_lines(path) - ran)


def main() -> None:
    if "xplab" in sys.modules:
        raise SystemExit("xplab is already imported; its import-time lines would be missed")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    import pytest

    hits: set[tuple[str, int]] = set()
    with traced(str(PACKAGE), hits):
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        import dump_outputs
        from xplab.cli import main as cli

        with tempfile.TemporaryDirectory() as tmp:
            argvs = dump_outputs.commands(Path(tmp))
            for argv in argvs.values():
                dump_outputs.invoke(cli, argv)
    print(f"\ntests exit {int(status)}; {len(argvs)} benchmark commands run")
    total = never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = missed(path, hits)
        total += len(executable_lines(path))
        never += len(lines)
        if not lines:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(lines)} lines never ran")
        for line in lines:
            print(f"{line:>6}  {source[line - 1].strip()}")
    print(f"\n{never} of {total} executable lines never ran")


if __name__ == "__main__":
    main()
