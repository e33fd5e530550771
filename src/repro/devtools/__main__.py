"""``python -m repro.devtools`` — run the static analyzer."""

from __future__ import annotations

import sys

from repro.devtools import main

if __name__ == "__main__":
    sys.exit(main())
