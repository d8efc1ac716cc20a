"""Run the braidkit command line in process and capture what it writes.

    result = invoke(main, ["ab", "--in", "-"], input="group C2\\ngens: a\\nrel: a^2\\n")

`main` is called as `main(args, "main")`, so every usage line names the
program `main`.  The result holds `stdout`, `stderr`, `output` (the two
interleaved in the order they were written), `exit_code` and `exception`:
the `SystemExit` of a nonzero exit, the exception that escaped the command
(exit code 1), or None.  stdin reads `input`, or nothing.  `commands` walks
the command table of `braidkit.cli`.
"""

import io
import sys


class _Capture(io.StringIO):
    """A UTF-8 text stream, as a terminal's is, that also appends what it is
    given to a shared list."""

    encoding = "utf-8"
    errors = "strict"

    def __init__(self, shared: list):
        super().__init__()
        self._shared = shared

    def write(self, text):
        written = super().write(text)  # first, so a refused write leaves no trace
        self._shared.append(text)
        return written


class Result:
    def __init__(self, stdout, stderr, output, exit_code, exception):
        self.stdout = stdout
        self.stderr = stderr
        self.output = output
        self.exit_code = exit_code
        self.exception = exception

    def __repr__(self):
        return "<Result exit %d %r>" % (self.exit_code, self.exception)


def invoke(main, args, input=None) -> Result:
    shared = []
    out, err = _Capture(shared), _Capture(shared)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), out, err
    exception = None
    try:
        main(list(args), "main")
        exit_code = 0
    except SystemExit as exc:
        exit_code = 0 if exc.code is None else exc.code
        if exit_code != 0:
            exception = exc
        if not isinstance(exit_code, int):
            out.write("%s\n" % exit_code)
            exit_code = 1
    except Exception as exc:  # a failure the command let escape: exit 1
        exception, exit_code = exc, 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(out.getvalue(), err.getvalue(), "".join(shared), exit_code, exception)


def commands(table, path=()):
    """(command path, function, options) of every command of a
    `braidkit.cli.COMMANDS` table, through its groups."""
    for name, entry in table.items():
        if isinstance(entry[1], dict):
            yield from commands(entry[1], path + (name,))
        else:
            yield (path + (name,), *entry)
