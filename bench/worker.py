"""Run one tccr CLI campaign in a fresh interpreter, as a user would.

    python3 bench/worker.py '{"result": PATH, "argv": [...], "spans": PATH|null, "facts": false}'

The parent puts the checkout's ``src`` on ``PYTHONPATH``.  The worker imports
``tccr.cli``, stamps ``ready`` (``time.monotonic``, comparable with the
parent's clock), then times ``tccr.cli.main(argv)`` and writes one JSON
object to ``result``: ``ready``, ``wall_s``, ``exit`` and ``maxrss_kb``.
With ``spans`` set, the campaign runs under the span recorder, the raw spans
go to that path and their summary into the result.  Without ``argv`` the
worker only imports (a set-up probe); ``facts`` adds the BLAS and library
versions that the loaded numpy reports.
"""

import json
import resource
import sys
import time

import tccr.cli

READY = time.monotonic()


def blas_facts() -> dict:
    """BLAS library, its configuration string and thread count, as numpy loaded it."""
    import ctypes
    import re

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({p for p in re.findall(r"(/\S+\.so\S*)", fh.read()) if "blas" in p.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    facts["blas_threads"] = threads()
                    facts["blas_config"] = config().decode()
                    return facts
    return facts


def versions() -> dict:
    from importlib import metadata

    import numpy as np

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy}


def main() -> None:
    job = json.loads(sys.argv[1])
    result: dict = {"ready": READY}
    if job.get("facts"):
        result["facts"] = {**versions(), **blas_facts()}
    argv = job.get("argv")
    if argv is not None:
        tracer = None
        if job.get("spans"):
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = tccr.cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
            tracer.write(job["spans"])
            result["trace"] = tracer.summary()
        result.update(
            wall_s=wall,
            exit=code,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
