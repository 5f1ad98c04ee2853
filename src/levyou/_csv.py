"""The one format of every levyou result file.

A result file is a ``# levyou <title>`` line, then one ``#`` line of
space-separated ``key=value`` tokens per header, then a comma-separated
column line and one line per row.  Ints and strings are written as they
are, every other number with 17 significant digits, so a float read back
is the float that was written.
"""

from itertools import islice

from .errors import ConfigError


def _spec(value):
    """printf spec of a value: ints and strings as they are, else 17 digits."""
    return "%s" if isinstance(value, (int, str)) else "%.17g"


def cell(value):
    """One value as a CSV cell or header token value."""
    return _spec(value) % (value,)


def lines(title, headers=(), columns=(), rows=()):
    """The lines of a result file, each with its newline.

    ``headers`` is a sequence of dicts, one ``#`` line each; ``rows`` is an
    iterable of sequences of cells.  Each column holds one kind of value,
    so the first row's kinds give the format of every row.
    """
    yield f"# levyou {title}\n"
    for header in headers:
        yield "# " + " ".join(f"{key}={cell(value)}"
                              for key, value in header.items()) + "\n"
    if columns:
        yield ",".join(columns) + "\n"
    row_format = None
    for row in rows:
        if row_format is None:
            row_format = ",".join(map(_spec, row)) + "\n"
        yield row_format % tuple(row)


def text(*args, **kwargs):
    """:func:`lines` of the arguments as one string."""
    return "".join(lines(*args, **kwargs))


def write(path, *args, **kwargs):
    """Write :func:`lines` of the arguments to ``path``, in blocks of lines
    so that a large file is never held in memory at once."""
    it = lines(*args, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        while block := "".join(islice(it, 4096)):
            fh.write(block)


def read_runs(path, n_fields):
    """(header, rows) of a run CSV: the ``key=value`` tokens of its ``#``
    lines, and its data rows as (int path id, float, ...) tuples."""
    header, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                header.update(tok.split("=", 1) for tok in line[1:].split()
                              if "=" in tok)
                continue
            if not line or line.startswith("path_id"):
                continue
            fields = line.split(",")
            try:
                if len(fields) != n_fields:
                    raise ValueError
                rows.append((int(fields[0]), *map(float, fields[1:])))
            except ValueError:
                raise ConfigError(f"malformed row {line!r} in {path}") from None
    if not rows:
        raise ConfigError(f"no data rows in {path}")
    return header, rows


def check_path_ids(ids, header, path):
    """Require the sorted ``ids`` to run up from the header's ``path_offset``
    (default 0), each once, ``n_paths`` of them if given; return the offset."""
    offset = int(header.get("path_offset", 0))
    n = int(header.get("n_paths", len(ids)))
    if list(ids) != list(range(offset, offset + n)):
        raise ConfigError(
            f"{path}: path ids must run from {offset} to {offset + n - 1}, "
            "each once"
        )
    return offset
