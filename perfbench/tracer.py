"""Span tracer that wraps enumcode's layer boundaries from outside the package.

Every wrapped name is the one a caller actually looks up: a module global
that another module imported (``enumcode.block_codec.sequence_to_perm_index``)
or a method on a class (``BitWriter.write``). A call through a wrapper opens
a span whose parent is the span open at that moment, so a span's self time is
its duration minus the durations of its direct children.

Aggregates (calls, total and self time, per-layer totals and the
deterministic counters) are kept for every span. The full span records, with
parent links, are kept only while ``recording`` is set (the first traced
repetition) and only up to ``MAX_RECORDS``, so that memory stays bounded;
:meth:`Tracer.write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

LAYERS = (
    "cli",
    "block_codec",
    "permutation_codec",
    "composition_codec",
    "combinatorics",
    "bitstream",
    "analysis",
)

# Span name -> where callers look it up: (module, class or None, attribute).
# A span name listed with several lookups is one function imported into
# several modules.
TARGETS = {
    "cli.main": [("cli", None, "main")],
    "block_codec.factorize": [("cli", None, "factorize"), ("block_codec", None, "factorize")],
    "block_codec.encode": [("cli", None, "encode")],
    "block_codec.decode": [("cli", None, "decode")],
    "block_codec.accounted_bits": [("cli", None, "accounted_bits")],
    "block_codec.container_bits": [("cli", None, "container_bits")],
    "block_codec.average_block_length": [("cli", None, "average_block_length")],
    "block_codec.to_bytes": [("block_codec", "EncodedContainer", "to_bytes")],
    "block_codec.from_bytes": [("block_codec", "EncodedContainer", "from_bytes")],
    "permutation_codec.rank": [("block_codec", None, "sequence_to_perm_index")],
    "permutation_codec.unrank": [("block_codec", None, "perm_index_to_sequence")],
    "permutation_codec.frequency_vector": [("cli", None, "frequency_vector")],
    "composition_codec.rank": [("block_codec", None, "vector_to_index")],
    "composition_codec.unrank": [("block_codec", None, "index_to_vector")],
    "combinatorics.k_count": [("combinatorics", "CombinatoricsContext", "k_count")],
    "combinatorics.multinomial": [
        ("block_codec", None, "multinomial"),
        ("permutation_codec", None, "multinomial"),
        ("analysis", None, "multinomial"),
    ],
    "bitstream.write": [("bitstream", "BitWriter", "write")],
    "bitstream.write_elias_delta": [("bitstream", "BitWriter", "write_elias_delta")],
    "bitstream.read": [("bitstream", "BitReader", "read")],
    "bitstream.read_elias_delta": [("bitstream", "BitReader", "read_elias_delta")],
    "bitstream.elias_delta_bit_length": [("block_codec", None, "elias_delta_bit_length")],
    "analysis.log2_int": [("block_codec", None, "log2_int")],
    "analysis.finite_set_h0": [("cli", None, "finite_set_h0")],
}

# Functions reported one by one; the remaining spans count towards their layer.
REPORTED = (
    "permutation_codec.rank",
    "permutation_codec.unrank",
    "composition_codec.rank",
    "composition_codec.unrank",
    "combinatorics.k_count",
    "combinatorics.multinomial",
    "bitstream.write",
    "bitstream.read",
    "block_codec.factorize",
    "block_codec.encode",
    "block_codec.decode",
    "block_codec.accounted_bits",
    "block_codec.container_bits",
    "analysis.log2_int",
)

COMMANDS = ("encode", "sweep")
FIELDS = ("length", "frequency", "permutation", "padding")
# Full span records kept per run; later spans still count in the aggregates.
MAX_RECORDS = 50_000


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.total_s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    for name in REPORTED:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.total_s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    out += [
        ("permutation_codec.rank_symbols", "count", "lower"),
        ("combinatorics.k_count.hit_ratio", "ratio", "higher"),
        ("combinatorics.k_count.table_entries", "count", "lower"),
        ("bitstream.write.bits", "bit", "lower"),
        ("bitstream.read.bits", "bit", "lower"),
        ("block_codec.blocks", "count", "lower"),
        ("block_codec.factorize.calls_per_encode", "count", "lower"),
    ]
    for kind in ("permutation_codec", "composition_codec"):
        for command in COMMANDS:
            out.append((f"{kind}.rank_used_ratio.{command}", "ratio", "higher"))
            out.append((f"{kind}.ranks_discarded.{command}", "count", "lower"))
    out += [(f"bits.{field}", "bit", "lower") for field in FIELDS]
    out += [("trace.overhead_ratio", "ratio", "lower"), ("trace.spans", "count", "lower")]
    return out


class Tracer:
    """Records spans for calls made through the installed wrappers."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self._sid = {name: i for i, name in enumerate(self.names)}
        self._layer = [name.split(".", 1)[0] for name in self.names]
        size = len(self.names)
        self.calls = [0] * size
        self.total = [0.0] * size
        self.self_time = [0.0] * size
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.layer_total = dict.fromkeys(LAYERS, 0.0)
        self.counts = {
            "rank_symbols": 0,
            "k_count_hits": 0,
            "k_count_misses": 0,
            "write_bits": 0,
            "read_bits": 0,
            "blocks": 0,
            "encode_commands": 0,
            "factorize_in_encode_command": 0,
        }
        # (kind, command) -> [computed, written into a container]
        self.ranks = {(k, c): [0, 0] for k in ("permutation", "composition") for c in COMMANDS}
        self.bits = dict.fromkeys(FIELDS, 0)
        self.recording = False  # keep full span records (first repetition only)
        self.records: list[list] = []
        self.trace_id = 0
        self._stack: list[list] = []  # [sid, start, child_time, record index]
        self._command = None
        self._encode_sid = self._sid["block_codec.encode"]
        self._encode_writes = 0
        self._saved: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, sid: int) -> None:
        index = -1
        if self.recording and len(self.records) < MAX_RECORDS:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.records)
            self.records.append([self.trace_id, sid, parent, 0.0, 0.0])
        self._stack.append([sid, perf_counter(), 0.0, index])

    def _exit(self) -> None:
        end = perf_counter()
        sid, start, child, index = self._stack.pop()
        duration = end - start
        self.calls[sid] += 1
        self.total[sid] += duration
        self.self_time[sid] += duration - child
        layer = self._layer[sid]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            outermost = self._layer[parent[0]] != layer
        else:
            outermost = True
        if outermost:
            self.layer_calls[layer] += 1
            self.layer_total[layer] += duration
        if index >= 0:
            self.records[index][3:] = [start, end]

    # -- hooks: counters measured where the work happens ---------------------
    #
    # A "before" hook gets the call's arguments and returns a state that the
    # "after" hook receives together with the result.

    def _hooks(self) -> dict:
        return {
            "cli.main": (self._start_command, self._end_command),
            "block_codec.encode": (self._start_encode, self._end_encode),
            "block_codec.factorize": (self._start_factorize, self._end_factorize),
            "permutation_codec.rank": (self._start_permutation_rank, None),
            "composition_codec.rank": (self._start_composition_rank, None),
            "bitstream.write": (self._start_write, None),
            "bitstream.read": (self._start_read, None),
            "combinatorics.k_count": (self._start_k_count, self._end_k_count),
        }

    def _start_command(self, args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        self._command = argv[0] if argv else None
        if self._command == "encode":
            self.counts["encode_commands"] += 1

    def _end_command(self, args, result, state):
        self._command = None

    def _start_encode(self, args, kwargs):
        self._encode_writes = 0

    def _end_encode(self, args, result, state):
        self.bits["padding"] += len(result.payload) * 8 - result.payload_bits

    def _start_factorize(self, args, kwargs):
        if self._command == "encode":
            self.counts["factorize_in_encode_command"] += 1

    def _end_factorize(self, args, result, state):
        self.counts["blocks"] += len(result)

    def _count_rank(self, kind: str) -> None:
        tally = self.ranks.get((kind, self._command))
        if tally is not None:
            tally[0] += 1
            # a rank computed inside encode() is the one it packs
            tally[1] += any(frame[0] == self._encode_sid for frame in self._stack)

    def _start_permutation_rank(self, args, kwargs):
        self._count_rank("permutation")
        self.counts["rank_symbols"] += len(args[0])

    def _start_composition_rank(self, args, kwargs):
        self._count_rank("composition")

    def _start_write(self, args, kwargs):
        width = args[2] if len(args) > 2 else kwargs["width"]
        self.counts["write_bits"] += width
        parent = self.names[self._stack[-1][0]] if self._stack else None
        if parent == "bitstream.write_elias_delta":
            self.bits["length"] += width
        elif parent == "block_codec.encode":
            # encode() writes each block's frequency rank, then its permutation rank
            field = "frequency" if self._encode_writes % 2 == 0 else "permutation"
            self.bits[field] += width
            self._encode_writes += 1

    def _start_read(self, args, kwargs):
        self.counts["read_bits"] += args[1] if len(args) > 1 else kwargs["width"]

    def _start_k_count(self, args, kwargs):
        return len(args[0])  # memo table size before the lookup

    def _end_k_count(self, args, result, state):
        self.counts["k_count_misses" if len(args[0]) > state else "k_count_hits"] += 1

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, name: str, fn):
        sid = self._sid[name]
        enter, exit_ = self._enter, self._exit
        before, after = self._hooks().get(name, (None, None))
        if before is None:
            def traced(*args, **kwargs):
                enter(sid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        elif after is None:
            def traced(*args, **kwargs):
                before(args, kwargs)
                enter(sid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            def traced(*args, **kwargs):
                state = before(args, kwargs)
                enter(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
                after(args, result, state)
                return result
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Replace every target in ``modules`` (short name -> module) with a wrapper."""
        for name, lookups in TARGETS.items():
            for module, cls, attr in lookups:
                owner = getattr(modules[module], cls) if cls else modules[module]
                raw = owner.__dict__[attr] if cls else getattr(owner, attr)
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, except the ones the caller measures (overhead)."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for sid, seconds in enumerate(self.self_time):
            layer_self[self._layer[sid]] += seconds
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.total_s"] = self.layer_total[layer]
            out[f"{layer}.self_s"] = layer_self[layer]
        for name in REPORTED:
            sid = self._sid[name]
            out[f"{name}.calls"] = self.calls[sid]
            out[f"{name}.total_s"] = self.total[sid]
            out[f"{name}.self_s"] = self.self_time[sid]
        c = self.counts
        lookups = c["k_count_hits"] + c["k_count_misses"]
        out["permutation_codec.rank_symbols"] = c["rank_symbols"]
        out["combinatorics.k_count.hit_ratio"] = c["k_count_hits"] / lookups if lookups else 0.0
        out["combinatorics.k_count.table_entries"] = c["k_count_misses"]
        out["bitstream.write.bits"] = c["write_bits"]
        out["bitstream.read.bits"] = c["read_bits"]
        out["block_codec.blocks"] = c["blocks"]
        out["block_codec.factorize.calls_per_encode"] = (
            c["factorize_in_encode_command"] / c["encode_commands"] if c["encode_commands"] else 0.0
        )
        for (kind, command), (computed, used) in self.ranks.items():
            # no rank computed means none wasted: the ratio reads 1
            out[f"{kind}_codec.rank_used_ratio.{command}"] = used / computed if computed else 1.0
            out[f"{kind}_codec.ranks_discarded.{command}"] = computed - used
        for field in FIELDS:
            out[f"bits.{field}"] = self.bits[field]
        out["trace.spans"] = sum(self.calls)
        return out

    def counters(self) -> dict[str, float]:
        """The metrics that must repeat exactly for a given seed (no times)."""
        units = {name: unit for name, unit, _ in metric_names()}
        return {key: value for key, value in self.metrics().items() if units[key] != "s"}

    def write_spans(self, path) -> None:
        """Write the recorded spans, with parent links, as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["trace_id", "name", "parent", "start", "end"],
                    "spans": [[t, self.names[s], p, a, b] for t, s, p, a, b in self.records],
                },
                handle,
            )
