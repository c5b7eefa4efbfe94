"""``python -m fedmmg ...`` runs the same command line as ``fedmmg ...``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
