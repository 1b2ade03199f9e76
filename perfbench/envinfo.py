"""The environment a result came from."""

import os
import platform
import sys


def environment():
    from importlib.metadata import version
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sortedcontainers": version("sortedcontainers"),
        "platform": sys.platform,
    }
