"""``python -m benchmarks.e2e`` (see :mod:`benchmarks.e2e.cli`)."""

from .cli import main

raise SystemExit(main())
