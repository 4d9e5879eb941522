import os
import sys

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HOSTBENCH)

for path in (os.path.join(ROOT, "src"), HOSTBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
