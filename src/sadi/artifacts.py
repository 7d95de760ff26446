"""The one layout of every artifact file: an optional provenance line
``# k=v k=v ...``, further ``# `` comment lines, an optional column line, and
one comma-joined line per row.  A cell is ``str`` of an int or a string, and
otherwise a float to 17 significant digits, which reads back to the same
double.  Files are UTF-8 with ``\\n`` line ends on every platform, and their
directory is created when missing.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


def cell(v) -> str:
    return str(v) if isinstance(v, (int, str, np.integer)) else f"{float(v):.17g}"


# rows a templated artifact formats as one string
BLOCK_ROWS = 1024


def column_blocks(*columns):
    """The rows of equal-length columns (arrays, lists or ranges) in blocks of
    ``BLOCK_ROWS`` row tuples: the ``rows`` of an Artifact with a template.
    An array column is read as Python numbers, so "%d" of an int and "%.17g"
    of a float print as ``cell`` does (a bool would not)."""
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        block = slice(lo, lo + BLOCK_ROWS)
        yield zip(*[c[block].tolist() if isinstance(c, np.ndarray) else c[block]
                    for c in columns])


@dataclass(repr=False, eq=False)
class Artifact:
    columns: Optional[Sequence[str]]  # None: no column line
    rows: Iterable                    # of cell sequences, read once
    comments: Sequence[str] = ()
    provenance: Iterable = ()         # (key, value) pairs, values printed by str
    template: Optional[str] = None    # printf form of one row; rows then come in blocks

    def lines(self):
        if self.provenance:
            yield "# " + " ".join(f"{k}={v}" for k, v in self.provenance) + "\n"
        for c in self.comments:
            yield f"# {c}\n"
        if self.columns is not None:
            yield ",".join(self.columns) + "\n"
        if self.template is not None:
            # each block of row tuples is one string; "%.17g" prints as ``cell``
            for block in self.rows:
                yield "".join([self.template % row for row in block])
            return
        for row in self.rows:
            # floats and strings, the common cells, are formatted without a call
            yield ",".join([f"{v:.17g}" if isinstance(v, float) else v if isinstance(v, str)
                            else cell(v) for v in row]) + "\n"

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(self.lines())
