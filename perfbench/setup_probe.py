"""Set-up cost in a fresh interpreter: import the CLI module (which loads the
whole package) and parse the configs passed as a JSON list on stdin.

Prints one JSON line: {"import_s", "parse_s", "module"}.
"""

import json
import sys
import time

start = time.perf_counter()
import qwhydro.cli  # noqa: E402
imported = time.perf_counter()
from qwhydro.config import parse_config  # noqa: E402

for text in json.load(sys.stdin):
    parse_config(text)
parsed = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported,
                  "module": qwhydro.__file__}))
