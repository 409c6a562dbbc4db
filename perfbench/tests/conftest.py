import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

workloads.import_package()
