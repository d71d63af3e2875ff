"""The ``projgeo`` command line, run the two ways the tests run it.

:func:`run_cli` calls :func:`projgeo.cli.main` in this process and returns
what ``python -m projgeo`` would have: the exit code, stdout and stderr.
Nearly every CLI test uses it.  :func:`run_process` starts a new
interpreter; it is kept for what only a process shows, such as the bytes
it writes to stdout, the environment it starts with, and how
``__main__`` turns ``main``'s return into an exit code.
"""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from typing import NamedTuple
from unittest import mock

from projgeo import cli


class Result(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def _fresh_process_filters() -> None:
    """The warning filters of a new interpreter: Python's defaults, and the
    overflow filter that :mod:`projgeo.numerics` installs on import, which
    pytest resets before each test."""
    warnings.resetwarnings()
    for category in (ResourceWarning, ImportWarning, PendingDeprecationWarning,
                     DeprecationWarning):
        warnings.simplefilter("ignore", category)
    warnings.filterwarnings("default", category=DeprecationWarning, module="__main__")
    warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning, "projgeo.numerics")


def run_cli(*argv: str, env: dict | None = None) -> Result:
    """Run ``projgeo *argv`` in process, with ``os.environ`` replaced by
    ``env`` for this call when it is given.

    argparse's ``SystemExit`` becomes the exit code.  A warning that a new
    process would print is appended to stderr, so a test that expects an
    empty stderr also sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    environ = mock.patch.dict(os.environ, env or {}, clear=env is not None)
    with environ, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _fresh_process_filters()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: 2 for a bad argument, 0 after --help
            code = exc.code or 0
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    return Result(code, out.getvalue(), err.getvalue())


def run_process(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m projgeo *argv`` in a new interpreter; stdout and
    stderr are bytes."""
    return subprocess.run([sys.executable, "-m", "projgeo", *argv], capture_output=True, env=env)
