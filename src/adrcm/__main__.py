"""Entry point for ``python -m adrcm``, the same command line as ``adrcm``."""
from .cli import main

raise SystemExit(main())
