"""The process entry of ``python -m blockgd`` and the ``blockgd`` console script."""

import gc
import sys

from .cli import main


def entry() -> int:
    """Freeze the import graph, then run cli.main and return its exit code."""
    # Frozen objects are neither rescanned by the collector nor torn down at exit;
    # cli.main does not freeze, so the objects of in-process callers stay collectable.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
