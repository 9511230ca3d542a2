"""``python -m repro`` — the ``ppd`` command (see :mod:`repro.ppd`)."""

import sys

from .ppd import main

if __name__ == "__main__":
    sys.exit(main())
