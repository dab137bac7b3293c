"""Layer map of the traced run: what is wrapped, and what it adds up to.

The traced child installs a wrapper on each public function below, from
outside the program, and records one span per call (name, parent, start,
end) plus the counts that the call's arguments give.  Names imported
early with ``from .x import y`` are patched in every ``semikin`` module
that holds them, and ``FlowMap.__call__`` is patched on the class.  A
target that no longer exists, or whose arguments no longer bind, is
reported and its metrics become null; it never stops the run.

The parent turns the spans of one pass into the per-layer metrics.  This
module imports nothing from the program at import time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import re
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  An attribute "Class.method" is
#: patched on the class.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("io", "load_scenario", "io.load_scenario"),
    ("io", "atomic_write_bytes", "io.write"),
    ("io", "atomic_write_text", "io.write"),
    ("io", "save_density", "io.write"),
    ("io", "save_envelope", "io.write"),
    ("io", "save_wavefunction", "io.write"),
    ("io", "save_rate_matrix", "io.write"),
    ("io", "save_correspondence_report", "io.write"),
    ("io", "save_kinetic_report", "io.write"),
    ("correspondence", "run_correspondence", "correspondence.driver"),
    ("correspondence", "barrier_split_experiment", "correspondence.driver"),
    ("correspondence", "kinetic_scenario", "correspondence.driver"),
    ("schrodinger", "evolve", "schrodinger.evolve"),
    ("schrodinger", "expectation_x", "schrodinger.observables"),
    ("schrodinger", "expectation_p", "schrodinger.observables"),
    ("schrodinger", "energy", "schrodinger.observables"),
    ("envelope", "extract_envelope", "envelope.extract"),
    ("envelope", "scale_check", "envelope.scale_check"),
    ("liouville", "evolve_liouville", "liouville.transport"),
    ("liouville", "FlowMap.__call__", "liouville.flowmap"),
    ("kinetics", "evolve_boltzmann", "kinetics.boltzmann"),
)

#: Modules whose cumulative ``-X importtime`` value is reported.
IMPORT_MODULES = (
    "core", "schrodinger", "envelope", "liouville", "manybody",
    "kinetics", "correspondence", "io", "cli",
)

_EVOLVE_COUNTS = ("schrodinger.evolve", "schrodinger.evolve arguments")
_TRANSPORT_COUNTS = ("liouville.transport", "liouville.transport arguments")

#: Per-layer metric -> (unit, better, what it needs).  A metric is null
#: when a span it needs lost all of its targets, or when the arguments
#: its counts come from no longer bind.
METRICS = {
    "schrodinger.evolve.calls": ("count", "lower", ("schrodinger.evolve",)),
    "schrodinger.evolve.busy_s": ("s", "lower", ("schrodinger.evolve",)),
    "schrodinger.steps": ("count", "lower", _EVOLVE_COUNTS),
    "schrodinger.us_per_step": ("us", "lower", _EVOLVE_COUNTS),
    "schrodinger.observables.busy_s": ("s", "lower", ("schrodinger.observables",)),
    "schrodinger.state_bytes": ("B", "lower", _EVOLVE_COUNTS),
    "liouville.transport.calls": ("count", "lower", ("liouville.transport",)),
    "liouville.transport.busy_s": ("s", "lower", ("liouville.transport",)),
    "liouville.node_steps": ("count", "lower", _TRANSPORT_COUNTS),
    "liouville.ns_per_node_step": ("ns", "lower", _TRANSPORT_COUNTS),
    "liouville.interp_nodes": ("count", "lower", _TRANSPORT_COUNTS),
    "liouville.flowmap.calls": ("count", "lower", ("liouville.flowmap",)),
    "liouville.flowmap.busy_s": ("s", "lower", ("liouville.flowmap",)),
    "kinetics.boltzmann.calls": ("count", "lower", ("kinetics.boltzmann",)),
    "kinetics.boltzmann.busy_s": ("s", "lower", ("kinetics.boltzmann",)),
    "kinetics.boltzmann.self_s": ("s", "lower", ("kinetics.boltzmann",)),
    "kinetics.master_steps": (
        "count", "lower", ("kinetics.boltzmann", "kinetics.boltzmann arguments"),
    ),
    "kinetics.transport_calls_per_sample": (
        "calls/sample", "lower", ("kinetics.boltzmann", "liouville.transport"),
    ),
    "envelope.extract.calls": ("count", "lower", ("envelope.extract",)),
    "envelope.extract.busy_s": ("s", "lower", ("envelope.extract",)),
    "envelope.scale_check.calls": ("count", "lower", ("envelope.scale_check",)),
    "envelope.scale_check.busy_s": ("s", "lower", ("envelope.scale_check",)),
    "correspondence.driver.busy_s": ("s", "lower", ("correspondence.driver",)),
    "correspondence.self_s": ("s", "lower", ("correspondence.driver",)),
    "io.load_scenario.busy_s": ("s", "lower", ("io.load_scenario",)),
    "io.write.calls": ("count", "lower", ("io.write",)),
    "io.write.busy_s": ("s", "lower", ("io.write",)),
    "io.bytes_written": ("B", "lower", ("io.write", "io.write arguments")),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    **{f"{m}.import_s": ("s", "lower", ()) for m in IMPORT_MODULES},
    "trace.overhead_s": ("s", "lower", ()),
    "trace.solve_coverage": ("ratio", "higher", ()),
}


# --------------------------------------------------------------------------
# child side: recording
# --------------------------------------------------------------------------


def _steps(t, dt) -> int:
    """Verlet or Strang steps for a span of length t with step bound dt."""
    if t == 0.0:
        return 0
    if dt is None:
        return 1
    return max(1, math.ceil(abs(t) / dt - 1e-12))


def _count_evolve(counts, args):
    counts["schrodinger.steps"] += args["steps"]
    counts["schrodinger.state_bytes"] = max(
        counts["schrodinger.state_bytes"], 16 * args["psi"].values.size
    )


def _count_transport(counts, args):
    nodes = args["rho0"].values.size
    counts["liouville.node_steps"] += nodes * _steps(args["t"], args.get("dt"))
    if args["t"] != 0.0:
        counts["liouville.interp_nodes"] += nodes


def _count_boltzmann(counts, args):
    rates = args["rates"]
    if rates is not None and rates.values.any() and args["t"] > 0.0:
        counts["kinetics.master_steps"] += _steps(args["t"], args.get("dt"))


def _count_write(counts, args):
    counts["io.bytes_written"] += len(args["data"])


_COUNTERS = {
    ("schrodinger", "evolve"): _count_evolve,
    ("liouville", "evolve_liouville"): _count_transport,
    ("kinetics", "evolve_boltzmann"): _count_boltzmann,
    ("io", "atomic_write_bytes"): _count_write,
}


class Recorder:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, where, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                try:
                    counter(self.counts, signature.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError) as exc:
                    # the signature changed: count nothing, keep running
                    self.missing[f"{where} arguments"] = f"{type(exc).__name__}: {exc}"
            index = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1, time.monotonic(), None])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = time.monotonic()

        return wrapper

    def install(self):
        """Wrap every target that exists; note the ones that do not."""
        for module_name, attr, span in TARGETS:
            where = f"semikin.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"semikin.{module_name}")
            except ImportError as exc:
                self.missing[where] = f"module not importable: {exc}"
                continue
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, method, None) if holder is not None else None
            if original is None:
                self.missing[where] = "not found"
                continue
            wrapper = self.wrap(span, original, where, _COUNTERS.get((module_name, attr)))
            if owner:
                setattr(holder, method, wrapper)
                continue
            for name, loaded in list(sys.modules.items()):
                if name == "semikin" or name.startswith("semikin."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative import seconds per ``semikin`` module from -X importtime."""
    out = {}
    for line in stderr_text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(3).startswith("semikin."):
            out[match.group(3)[len("semikin."):]] = int(match.group(2)) * 1e-6
    return out


# --------------------------------------------------------------------------
# parent side: aggregation
# --------------------------------------------------------------------------


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for index, (_, parent, _, _) in enumerate(spans):
            self.children[parent].append(index)

    def duration(self, i):
        return self.spans[i][3] - self.spans[i][2]

    def outermost(self, name):
        """Indices of spans called `name` with no ancestor of that name."""
        out = []
        for i, span in enumerate(self.spans):
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if span[0] == name and parent < 0:
                out.append(i)
        return out

    def busy(self, name):
        return sum(self.duration(i) for i in self.outermost(name))

    def self_time(self, name):
        return sum(
            self.duration(i) - sum(self.duration(c) for c in self.children[i])
            for i in self.outermost(name)
        )

    def count(self, name, parent_name=None):
        return sum(
            1
            for name_i, parent, _, _ in self.spans
            if name_i == name
            and (parent_name is None or (parent >= 0 and self.spans[parent][0] == parent_name))
        )


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def op_layers(trace: dict, solve_s: float) -> dict[str, float]:
    """Per-layer values of one traced CLI invocation (additive ones summed
    over a pass by the caller)."""
    s = _Spans(trace["spans"])
    counts = defaultdict(float, trace["counts"])
    roots = s.outermost("cli.main")
    after_load = [
        c for r in roots for c in s.children[r] if s.spans[c][0] != "io.load_scenario"
    ]
    return {
        "schrodinger.evolve.calls": len(s.outermost("schrodinger.evolve")),
        "schrodinger.evolve.busy_s": s.busy("schrodinger.evolve"),
        "schrodinger.steps": counts["schrodinger.steps"],
        "schrodinger.observables.busy_s": s.busy("schrodinger.observables"),
        "schrodinger.state_bytes": counts["schrodinger.state_bytes"],
        "liouville.transport.calls": len(s.outermost("liouville.transport")),
        "liouville.transport.busy_s": s.busy("liouville.transport"),
        "liouville.node_steps": counts["liouville.node_steps"],
        "liouville.interp_nodes": counts["liouville.interp_nodes"],
        "liouville.flowmap.calls": len(s.outermost("liouville.flowmap")),
        "liouville.flowmap.busy_s": s.busy("liouville.flowmap"),
        "kinetics.boltzmann.calls": len(s.outermost("kinetics.boltzmann")),
        "kinetics.boltzmann.busy_s": s.busy("kinetics.boltzmann"),
        "kinetics.boltzmann.self_s": s.self_time("kinetics.boltzmann"),
        "kinetics.master_steps": counts["kinetics.master_steps"],
        "kinetics.nested_transport_calls": s.count("liouville.transport", "kinetics.boltzmann"),
        "envelope.extract.calls": len(s.outermost("envelope.extract")),
        "envelope.extract.busy_s": s.busy("envelope.extract"),
        "envelope.scale_check.calls": len(s.outermost("envelope.scale_check")),
        "envelope.scale_check.busy_s": s.busy("envelope.scale_check"),
        "correspondence.driver.busy_s": s.busy("correspondence.driver"),
        "correspondence.self_s": s.self_time("correspondence.driver"),
        "io.load_scenario.busy_s": s.busy("io.load_scenario"),
        "io.write.calls": len(s.outermost("io.write")),
        "io.write.busy_s": s.busy("io.write"),
        "io.bytes_written": counts["io.bytes_written"],
        "cli.self_s": s.self_time("cli.main"),
        "trace.covered_s": sum(s.duration(c) for c in after_load),
        "trace.solve_s": solve_s,
    }


def pass_layers(ops: list[dict], imports: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's scenarios."""
    total = defaultdict(float)
    for op in ops:
        for key, value in op.items():
            if key == "schrodinger.state_bytes":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    out = {k: v for k, v in total.items() if k in METRICS}
    out["schrodinger.us_per_step"] = _ratio(
        total["schrodinger.evolve.busy_s"], total["schrodinger.steps"], 1e6
    )
    out["liouville.ns_per_node_step"] = _ratio(
        total["liouville.transport.busy_s"], total["liouville.node_steps"], 1e9
    )
    out["kinetics.transport_calls_per_sample"] = _ratio(
        total["kinetics.nested_transport_calls"], total["kinetics.boltzmann.calls"]
    )
    out["trace.solve_coverage"] = _ratio(total["trace.covered_s"], total["trace.solve_s"])
    for module in IMPORT_MODULES:
        values = sorted(i[module] for i in imports if module in i)
        if values:
            out[f"{module}.import_s"] = values[len(values) // 2]
    return out


def null_reasons(missing: dict[str, str], imports: list[dict]) -> dict[str, str]:
    """Metrics that cannot be measured any more, with the reason."""
    lost = defaultdict(list)
    gone = set()
    for module_name, attr, span in TARGETS:
        where = f"semikin.{module_name}.{attr}"
        lost[span].append(where in missing)
        if f"{where} arguments" in missing:
            gone.add(f"{span} arguments")
    gone |= {span for span, flags in lost.items() if all(flags)}
    out = {}
    for metric, (_, _, needs) in METRICS.items():
        dead = [span for span in needs if span in gone]
        if dead:
            out[metric] = "no wrapped target left for " + ", ".join(dead)
    for module in IMPORT_MODULES:
        if imports and not any(module in i for i in imports):
            out[f"{module}.import_s"] = f"semikin.{module} was not imported"
    return out
