"""Seeded scenario generator for the benchmark.

The program only ever sees INI files written here.  They are the bundled
scenarios of the checkout with every packet moved by a whole number of
phase-space windows; grid sizes, ``dt`` and sample times are left alone,
so the cost of a run does not depend on the seed.  Seed 0 moves nothing
and reproduces the bundled files byte for byte.
"""

from __future__ import annotations

import configparser
import random
import re
from pathlib import Path

SCENARIO_DIR = Path("src") / "semikin" / "scenarios"

#: Largest packet shift, in windows, that keeps each scenario inside the
#: packet initializer's 1e-10 edge-tail limit and the Liouville leak
#: limit for its whole run.  The packet must stay at least
#: sqrt(4 ln(1e10)) sigma ~ 9.6 sigma from both grid edges:
#:   free_packet     x = 600 on [0, 4095], sigma 50   -> at most 119 left
#:   harmonic_trap   x = 0 on [-1024, 1023], sigma 48 -> orbit radius < 562
#:   barrier_split   x = 1500, barrier at 2048        -> lobes must clear it
#:                                                       by t = 900
#:   relaxation and
#:   drifting_relaxation  x = 512 on [0, 1023], sigma 48 -> at most 51
MAX_SHIFT_WINDOWS = {
    "free_packet": 6,
    "harmonic_trap": 8,
    "barrier_split": 4,
    "relaxation": 3,
    "drifting_relaxation": 3,
}

_SECTION = re.compile(r"^\s*\[([^\]]+)\]")
_X_CENTER = re.compile(r"^(\s*x_center\s*=\s*)(\S+)(.*)$")


def shift_windows(stem: str, seed: int) -> int:
    """Packet shift for one scenario, in windows: 0 at seed 0, else non-zero."""
    if seed == 0:
        return 0
    k = random.Random(f"{seed}/{stem}").randint(1, MAX_SHIFT_WINDOWS[stem])
    return k if random.Random(f"{seed}/{stem}/sign").random() < 0.5 else -k


def window_width(text: str) -> float:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    return float(parser["grid"]["dx"]) * int(parser["grid"]["window_cells"])


def generate_text(template: str, shift: float) -> str:
    """Move every ``x_center`` in a ``[packet...]`` section by ``shift``."""
    if shift == 0:
        return template
    out = []
    section = ""
    for line in template.splitlines(keepends=True):
        head = _SECTION.match(line)
        if head:
            section = head.group(1).strip()
        body = line.rstrip("\r\n")
        moved = _X_CENTER.match(body)
        if moved and (section == "packet" or section.startswith("packet.")):
            value = float(moved.group(2)) + shift
            line = f"{moved.group(1)}{value!r}{moved.group(3)}{line[len(body):]}"
        out.append(line)
    return "".join(out)


def generate(stem: str, seed: int, root: Path, outdir: Path) -> Path:
    """Write the seeded variant of bundled scenario ``stem`` into ``outdir``."""
    template = (root / SCENARIO_DIR / f"{stem}.ini").read_bytes().decode("utf-8")
    shift = shift_windows(stem, seed) * window_width(template)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{stem}.ini"
    path.write_bytes(generate_text(template, shift).encode("utf-8"))
    return path
