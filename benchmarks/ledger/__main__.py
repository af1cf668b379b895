"""``python -m benchmarks.ledger``: run from the repository root."""

import sys

from benchmarks.ledger.sut import SRC

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no repro sources under {SRC}; run from a full "
                 "checkout")
    sys.path.insert(0, str(SRC))

    from benchmarks.ledger.cli import main

    sys.exit(main())
