"""Runs sonoclass CLI calls inside one fresh process for perfbench/run.py.

usage: python3 child.py SPEC.json

SPEC holds {"calls": [[argv...], ...], "trace": bool, "result": path}.
The calls run in order through `sonoclass.cli.main` and stop at the first
non-zero exit. The result file gets each call's exit code, this
process's peak RSS, the library versions, the wall-clock times at
which this script started and finished (the parent turns them into
interpreter start-up and exit times) and, when tracing, every span. The
import of the CLI is itself a span, `cli.import`.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    started = time.time()
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        with tracer.span("cli.import"):
            import sonoclass.cli as cli
        tracer.install()
    else:
        import sonoclass.cli as cli

    codes = []
    for run, argv in enumerate(spec["calls"]):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.run = run
                with tracer.span(ROOT_SPAN):
                    code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        codes.append(code)
        if code != 0:
            break

    result = {
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
        "env": _versions(),
        "started": started,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    result["finished"] = time.time()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
