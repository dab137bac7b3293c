"""One benchmark operation: a single ``semikin`` CLI run in this process.

    python3 perfbench/child.py MARKS.json [--trace | --probe] CLI-ARGS...

Runs ``semikin.cli.main(CLI-ARGS)`` exactly as ``python3 -m semikin``
would, and writes to MARKS.json the monotonic and the process CPU
times at which the scenario was loaded and the artifacts were written,
the exit code and the peak RSS.  The parent took the launch time, so
set-up and solve time follow; CPU time counts from the process start.
The only hook of an untraced run is the mark taken when
``io.load_scenario`` returns.

``--trace`` also wraps every layer boundary of ``layers.TARGETS`` and
adds the spans to MARKS.json.  ``--probe`` imports the CLI, loads the
scenario given by ``--scenario`` and stops: a set-up-only sample.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    marks_path, *argv = sys.argv[1:]
    mode = argv.pop(0) if argv and argv[0] in ("--trace", "--probe") else None

    import semikin.cli
    import semikin.io

    if mode == "--probe":
        semikin.io.load_scenario(argv[argv.index("--scenario") + 1])
        loaded, loaded_cpu = time.monotonic(), time.process_time()
        marks = {"loaded": loaded, "written": loaded, "code": 0}
        marks.update(loaded_cpu=loaded_cpu, written_cpu=loaded_cpu)
        return _finish(marks_path, marks)

    recorder = None
    if mode == "--trace":
        from layers import Recorder  # the script's directory is sys.path[0]

        recorder = Recorder()
        recorder.install()

    marks = {}
    load_scenario = semikin.io.load_scenario

    def marked_load(*args, **kwargs):
        scenario = load_scenario(*args, **kwargs)
        marks["loaded"] = time.monotonic()
        marks["loaded_cpu"] = time.process_time()
        return scenario

    semikin.io.load_scenario = marked_load
    marks["code"] = semikin.cli.main(argv)
    marks["written"] = time.monotonic()
    marks["written_cpu"] = time.process_time()
    if recorder is not None:
        marks.update(recorder.dump())
    return _finish(marks_path, marks)


def _finish(marks_path: str, marks: dict) -> int:
    marks["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(marks_path, "w", encoding="utf-8") as handle:
        json.dump(marks, handle)
    return marks["code"]


if __name__ == "__main__":
    sys.exit(main())
