"""One untraced run in a fresh process: `qstream validate`, then `qstream run`.

    python3 perfbench/child.py <scenario.cfg> <out-dir>

Both commands go through `qstream.cli.main`, the function behind the
`qstream` console script, so this run depends only on the CLI and the
scenario text. The last stdout line is a JSON record of CLOCK_MONOTONIC
timestamps (comparable with the parent's), CPU time, peak RSS and library
versions.
"""

import contextlib
import io
import json
import resource
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(cfg, out_dir):
    t_import = now()
    import numpy
    import scipy
    from qstream import cli
    t_imported = now()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["validate", cfg])
    t_setup = now()
    cpu0 = cpu_seconds()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", cfg, "--out-dir", out_dir])
    t_end = now()
    cpu1 = cpu_seconds()
    print(json.dumps({
        "rc": rc,
        "import_s": t_imported - t_import,
        "t_setup": t_setup, "wall_s": t_end - t_setup, "cpu_s": cpu1 - cpu0,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__, "scipy": scipy.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
