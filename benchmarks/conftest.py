"""Shared helpers for the paper-figure scripts.

Every module here regenerates one table, figure or §-claim of the paper's
evaluation (§7) as a deterministic run -- virtual rounds or a step budget,
never a clock -- followed by a shape assertion.  The workloads are scaled
down so the whole directory runs in well under a minute (the paper used up
to 48 EC2 workers for hours); what is being reproduced is the *shape* of
each result -- who wins, how quantities scale with cluster size, which
inputs crash -- not the absolute numbers.  Each module's constants are its
scaling factors.

Nothing here writes a file, reads an environment variable or needs a pytest
plugin; wall-clock is measured in one place, ``bench/run.py``.
"""

from __future__ import annotations

from typing import Sequence

#: Cluster sizes swept by the scalability figures.
WORKER_COUNTS = (1, 2, 4)


def print_table(title: str, header: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Render one reproduced table/figure as text (shown with ``pytest -s``)."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    widths = [max(len(str(header[i])),
                  max((len(str(row[i])) for row in rows), default=0))
              for i in range(len(header))]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print()
