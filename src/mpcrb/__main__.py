"""``python -m mpcrb <command>``: the ``mpcrb`` command line."""
import sys
from .cli import main
sys.exit(main())
