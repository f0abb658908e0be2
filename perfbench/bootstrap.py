"""Locate the checkout this benchmark sits in and import ``repro`` from
its own ``src/`` tree, never from anywhere else."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; exit non-zero
    (printing no result) when the checkout holds no ``repro`` source."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro source tree at {src}")
    sys.path.insert(0, src)


def scratch_dir() -> str:
    """``<checkout>/.perfbench``: temporary caches and trace files."""
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
