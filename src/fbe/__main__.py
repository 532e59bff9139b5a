"""`python -m fbe ...` runs the fbe command line."""
from .cli import main

raise SystemExit(main())
