"""``python -m repro.fuzz`` — the same CLI as ``repro fuzz``."""

import sys

from .harness import main

sys.exit(main())
