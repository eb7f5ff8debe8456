"""Shared fixtures: an in-process runner for the ``xplab`` command line."""

import contextlib
import io
from dataclasses import dataclass

import pytest


@dataclass(frozen=True)
class Result:
    """What one command wrote, and the code it exited with."""

    exit_code: int
    stdout: str
    stderr: str
    output: str  # both streams, in the order written


class _Stream(io.StringIO):
    """A captured stream that also copies each write to a shared log."""

    def __init__(self, log: io.StringIO) -> None:
        super().__init__()
        self.log = log

    def write(self, text: str) -> int:
        self.log.write(text)
        return super().write(text)


class Runner:
    """Runs ``main.main`` in this process with stdout and stderr captured."""

    def invoke(self, main, args) -> Result:
        log = io.StringIO()
        out, err = _Stream(log), _Stream(log)
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=args, prog_name="xplab", standalone_mode=False)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return Result(code, out.getvalue(), err.getvalue(), log.getvalue())


@pytest.fixture()
def runner() -> Runner:
    return Runner()
