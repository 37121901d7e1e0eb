"""``python -m qlimit``: the qlimit command line without the installed entry point."""

from .cli import main

raise SystemExit(main())
