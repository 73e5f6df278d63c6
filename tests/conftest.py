import os
import sys
from pathlib import Path

import singlocus

# make the local oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))

# child processes (``python -m singlocus``) run the package imported here
_src = str(Path(singlocus.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_src, os.environ.get("PYTHONPATH"))))
