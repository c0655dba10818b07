"""The package's text file formats, read and written in one place.

Files are lines of whitespace-separated tokens; blank lines are ignored.  A
block is r lines of c numbers written with ``repr``, so it reads back bitwise.

- Matrix: a header ``d`` (square) or ``rows cols``, then a block of integers.
- Dataset: a header ``n d kind`` (``binary`` or ``real``), then an n x d
  block of finite values (binary: integers 0 and 1), plus a JSON sidecar.
- Checkpoint: ``strnn-checkpoint 1``, ``kind <kind>``, ``<name> <value>``
  fields and named blocks (``<name>``, ``rows cols``, rows of floats; a 1-D
  array is one row), then ``end``.

Malformed content, JSON included, raises ParseError naming the file and line.
A float block is parsed in one ``np.loadtxt`` pass; the per-line reader runs
when that pass fails, to name the faulty line, and for integer blocks.
"""

import json

import numpy as np

from .errors import ParseError

CHECKPOINT_MAGIC = "strnn-checkpoint 1"


class Reader:
    """Cursor over the lines of one file, read once.  ``line_no`` is the
    1-based number of the last line returned, so errors point at it."""

    def __init__(self, path):
        try:
            with open(path) as fh:
                self.lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ParseError(path, exc.object[:exc.start].count(b"\n") + 1,
                             "not a text file") from None
        self.path, self.line_no = path, 0

    def error(self, message):
        return ParseError(self.path, self.line_no, message)

    def line(self, what):
        """Tokens of the next non-blank line, which must exist."""
        while self.line_no < len(self.lines):
            self.line_no += 1
            toks = self.lines[self.line_no - 1].split()
            if toks:
                return toks
        raise self.error(f"file is empty or ends early: expected {what}")

    def dims(self, toks):
        """The tokens as positive integers."""
        try:
            dims = [int(t) for t in toks]
            if min(dims) >= 1:
                return dims
        except ValueError:
            pass
        raise self.error(f"expected positive integers, got {' '.join(toks)!r}")

    def label(self, name):
        """Consume a line that must read exactly ``name``."""
        toks = self.line(repr(name))
        if toks != name.split():
            raise self.error(f"expected {name!r}, got {' '.join(toks)!r}")

    def field(self, name):
        """The value of a ``<name> <value>`` line."""
        toks = self.line(f"'{name} <value>'")
        if len(toks) != 2 or toks[0] != name:
            raise self.error(f"expected '{name} <value>', got {' '.join(toks)!r}")
        return toks[1]

    def count(self, name):
        """The value of a ``<name> <n>`` line, a positive integer."""
        return self.dims([self.field(name)])[0]

    def block(self, r, c, dtype=np.float64, valid=None, why=None):
        """The next r lines of c numbers as an (r, c) array; the first row
        where the elementwise test ``valid`` fails raises ParseError ``why``.

        r non-blank lines of floats are parsed in one ``np.loadtxt`` pass.
        The per-line loop, which names the faulty line, runs for the rest: a
        blank line, a failed pass, a shape other than (r, c), a failed
        ``valid``, and integers (numpy 1.x ``loadtxt`` takes "1.0" as 1)."""
        lines = self.lines[self.line_no:self.line_no + r]
        if dtype == np.float64 and len(lines) == r and all(map(str.strip, lines)):
            try:
                a = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
            except (ValueError, OverflowError):
                a = None
            if a is not None and a.shape == (r, c) and (valid is None or valid(a).all()):
                self.line_no += r
                return a
        what, rows, line_nos = f"{r} rows of {c} values", [], []
        for _ in range(r):
            row = self.line(what)
            line_nos.append(self.line_no)
            if len(row) != c:
                raise self.error(f"expected {c} values, found {len(row)}")
            try:
                rows.append(np.array(row, dtype=dtype))
            except (ValueError, OverflowError):
                kind = "integer" if dtype == np.int64 else "numeric"
                raise self.error(f"non-{kind} token in {' '.join(row)!r}") from None
        a = np.array(rows)
        if valid is not None and not (ok := valid(a).all(axis=1)).all():
            self.line_no = line_nos[np.argmin(ok)]
            raise self.error(why)
        return a

    def named_block(self, name, rows=None, cols=None, valid=None, why=None):
        """A checkpoint block; ``rows`` and ``cols``, if given, are its shape,
        and ``valid`` and ``why`` are checked as in ``block``."""
        self.label(name)
        shape = self.dims(self.line("'rows cols'"))
        if len(shape) != 2 or rows not in (None, shape[0]) or cols not in (None, shape[1]):
            raise self.error(f"{name} block is {' x '.join(map(str, shape))}, "
                             f"expected {rows or 'r'} x {cols or 'c'}")
        return self.block(*shape, valid=valid, why=why)

    def finish(self, what):
        """Require that nothing but blank lines follows."""
        if any(ln.strip() for ln in self.lines[self.line_no:]):
            self.line("")
            raise self.error(f"unexpected line after {what}")


def write_rows(fh, a):
    """Write a 2-D array one row per line, or a 1-D array as one line."""
    for row in np.atleast_2d(a):
        fh.write(" ".join(map(repr, row.tolist())) + "\n")


def write_block(fh, name, a):
    """Write a named checkpoint block, every number as a float."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    fh.write(f"{name}\n{a.shape[0]} {a.shape[1]}\n")
    write_rows(fh, a)


def write_checkpoint(path, kind, write_body):
    """Write the checkpoint header, ``write_body(fh)`` and the ``end`` line."""
    with open(path, "w") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\nkind {kind}\n")
        write_body(fh)
        fh.write("end\n")


def read_checkpoint(path, bodies):
    """Read a checkpoint; ``bodies`` maps each accepted kind to its body reader."""
    reader = Reader(path)
    reader.label(CHECKPOINT_MAGIC)
    kind = reader.field("kind")
    if kind not in bodies:
        raise reader.error(f"expected kind {' or '.join(map(repr, bodies))}, "
                           f"found {kind!r}")
    model = bodies[kind](reader)
    reader.label("end")
    reader.finish("end")
    return model


def read_json(path, what):
    """Parse a JSON file holding one object, ``what`` naming it in errors."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ParseError(path, 1, f"{what} file not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"bad JSON in {what}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ParseError(path, 1, f"{what} must be a JSON object, "
                                  f"not {type(payload).__name__}")
    return payload


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def write_json(path, payload):
    """Write strict JSON with sorted keys and one-space indents; a non-finite
    float is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
