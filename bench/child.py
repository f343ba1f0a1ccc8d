"""One fresh-interpreter run of a workload; started by run.py.

    python3 bench/child.py SPEC OUT_DIR THREADS MODE RESULT

MODE is ``setup`` (import and load the spec only), ``run`` or ``trace``.
The child times the set-up (``import stiffnet.cli`` plus loading and
validating the spec file), then one ``run_experiment`` call: wall time,
user + system CPU time of the whole process over the call, and peak RSS.
It writes one JSON object to RESULT.  ``stiffnet`` must be importable
(run.py puts ``src`` on ``PYTHONPATH``).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _environment():
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
    }


def main(spec_path, out_dir, threads, mode, result_path):
    import stiffnet.cli as cli

    spec = cli.ExperimentSpec.from_dict(
        json.loads(Path(spec_path).read_text(encoding="utf-8")))
    result = {"setup_s": time.perf_counter() - _T0}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing
            tracer = tracing.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        cli.run_experiment(spec, out_dir=out_dir, threads=int(threads))
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,
            environment=_environment(),
        )
        if tracer is not None:
            result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:6])
