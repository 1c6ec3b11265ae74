#!/usr/bin/env python3
"""Build the program from this source tree and run one benchmark workload.

    python3 perfbench/run.py --workload serve-predict|serve-edit|train \
        --seed N --seconds S --trace 0|1

Run from the repository root. Build output goes to standard error; the
last line of standard output is the benchmark's JSON result. The exit
status is the benchmark's: 0 only when every correctness gate passed.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = "./_build/default/perfbench/pbench.exe"
PIGEON = "./_build/default/bin/pigeon_cli.exe"


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return os.path.join(prefix, "bin", "dune")
    return None


def main():
    # The benchmark measures the program built from the tree it sits in;
    # a tree without the program's sources has nothing to measure.
    needed = ["dune-project", "bin/pigeon_cli.ml", "lib/serve/engine.ml"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("run.py: no pigeon sources here (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    # Dune's shared cache lives outside the tree; the build writes only
    # under _build here.
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", EXE, PIGEON],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    # One CPU for the benchmark and everything it starts (the daemon runs
    # one job and the load generator mostly waits): the run then does not
    # depend on wake-ups crossing CPUs or on a second vCPU's steal.
    cpus = sorted(os.sched_getaffinity(0))

    def pin():
        try:
            os.sched_setaffinity(0, {cpus[-1]})
        except OSError:
            pass  # runs unpinned; the `# run` line shows the CPUs it had

    child = subprocess.Popen([EXE, *sys.argv[1:], "--pigeon", PIGEON], cwd=ROOT,
                             preexec_fn=pin)

    def forward(signum, _frame):
        child.send_signal(signum)

    for s in (signal.SIGTERM, signal.SIGINT):
        signal.signal(s, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
