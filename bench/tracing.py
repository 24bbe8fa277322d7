"""Spans around the calls into each ``rsm`` layer, recorded from outside.

:class:`Tracer` replaces public functions at the module attributes through
which the program calls them (``rsm.inference.kmedoid_init``, not
``rsm.medoids.kmedoid_init``, because ``fit`` reads the name from its own
module).  Each call becomes a span with a name, start, end and parent,
kept in memory and written out when the run ends; a tracer that measures
memory adds the tracemalloc peak of the layers that have a memory metric.
Per-layer metrics are derived from the spans of one round.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

MIB = float(1 << 20)

# (module, attribute, span name).  One span name may sit behind several
# attributes: the CLI and the library reach the same function by different
# names, and both call sites are wrapped.
WRAPPED = (
    ("rsm.cli", "load_network", "io.load_network"),
    ("rsm.io", "load_network", "io.load_network"),
    ("rsm.cli", "write_network_file", "io.write_network_file"),
    ("rsm.io", "write_network_file", "io.write_network_file"),
    ("rsm.cli", "write_result_bundle", "io.write_result_bundle"),
    ("rsm.cli", "validate_network", "network.validate_network"),
    ("rsm.inference", "validate_network", "network.validate_network"),
    ("rsm.network", "validate_network", "network.validate_network"),
    ("rsm.cli", "sample_network", "generate.sample_network"),
    ("rsm.generate", "sample_network", "generate.sample_network"),
    ("rsm.cli", "select_k", "selection.select_k"),
    ("rsm.inference", "kmedoid_init", "medoids.kmedoid_init"),
    ("rsm.medoids", "distance_matrix", "medoids.distance_matrix"),
    ("rsm.inference", "fit_single", "inference.fit_single"),
    ("rsm.inference", "elbo", "inference.elbo"),
    ("rsm.inference", "m_step_alpha", "inference.m_step_alpha"),
    ("rsm.inference", "m_step_gamma", "inference.m_step_gamma"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    round: int
    start: float
    end: float = 0.0
    peak_bytes: int = 0
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fingerprint(net) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(net.edge_types.tobytes())
    digest.update(net.subgraph_of.tobytes())
    return digest.hexdigest()


def _note(name: str, args, result) -> dict:
    if name == "inference.fit_single":
        return {"iterations": len(result[1])}
    if name == "medoids.distance_matrix":
        return {"network": _fingerprint(args[0])}
    return {}


# Spans whose memory is measured.  None of them calls another, so each
# has tracemalloc to itself.
MEMORY_SPANS = frozenset({"medoids.distance_matrix", "inference.fit_single",
                          "io.load_network", "generate.sample_network"})


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every
    wrapped attribute.

    With ``memory`` set, each span named in :data:`MEMORY_SPANS` runs under
    tracemalloc and keeps the peak of memory allocated inside it.
    tracemalloc slows allocation-heavy Python code several-fold, so a tracer
    that measures memory does not measure time, and the other way round.
    """

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent.id if parent else None, self.round,
                   start=0.0)
        measured = self.memory and name in MEMORY_SPANS
        if measured:
            tracemalloc.start()
        self.spans.append(rec)
        self._stack.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if measured:
                rec.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def install(self) -> None:
        """Wrap every entry in :data:`WRAPPED`.

        A missing attribute raises AttributeError, so a renamed entry point
        fails the traced run instead of going unmeasured.
        """
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            rec.note = _note(name, args, result)
            return result
        return traced



def _self_times(spans: list[Span]) -> dict[int, float]:
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round lasting ``wall_s`` seconds.

    Times are self times (a span's duration minus its children's), except
    ``selection.select_k_s`` and ``cli.*_s``, which are inclusive: they are
    the share of the run a user waits on each command.
    """
    own = _self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_s(name):
        return sum(own[s.id] for s in named(name))

    def total_s(name):
        return sum(s.duration for s in named(name))

    def peak_mb(name):
        return max((s.peak_bytes for s in named(name)), default=0) / MIB

    fits = named("inference.fit_single")
    iterations = sum(s.note["iterations"] for s in fits)
    distances = named("medoids.distance_matrix")
    distinct = len({s.note["network"] for s in distances})
    return {
        "medoids.distance_matrix_s": self_s("medoids.distance_matrix"),
        "medoids.distance_matrix_peak_mb": peak_mb("medoids.distance_matrix"),
        "medoids.distance_matrix_calls": len(distances),
        "medoids.distance_matrix_useful_ratio":
            distinct / len(distances) if distances else 0.0,
        "medoids.kmedoid_loop_s": self_s("medoids.kmedoid_init"),
        "inference.sweep_s": self_s("inference.fit_single"),
        "inference.s_per_iteration":
            total_s("inference.fit_single") / iterations if iterations else 0.0,
        "inference.iterations": iterations,
        "inference.restarts": len(fits),
        "inference.elbo_s": self_s("inference.elbo"),
        "inference.m_step_alpha_s": self_s("inference.m_step_alpha"),
        "inference.m_step_gamma_s": self_s("inference.m_step_gamma"),
        "inference.fit_single_peak_mb": peak_mb("inference.fit_single"),
        "selection.select_k_s": total_s("selection.select_k"),
        "io.load_network_s": self_s("io.load_network"),
        "io.load_network_peak_mb": peak_mb("io.load_network"),
        "io.write_network_file_s": self_s("io.write_network_file"),
        "io.write_result_bundle_s": self_s("io.write_result_bundle"),
        "network.validate_network_s": self_s("network.validate_network"),
        "generate.sample_network_s": self_s("generate.sample_network"),
        "generate.sample_network_peak_mb": peak_mb("generate.sample_network"),
        "cli.generate_s": total_s("cli.generate"),
        "cli.fit_s": total_s("cli.fit"),
        "cli.select_k_s": total_s("cli.select_k"),
        "cli.eval_s": total_s("cli.eval"),
        # Self times of the layer spans only: the inclusive cli.* spans
        # would cover every CLI round whole whatever the layers miss.
        "trace.coverage": sum(own[s.id] for s in spans
                              if not s.name.startswith("cli.")) / wall_s,
    }


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in per_round)
            for name in per_round[0]}
