"""Span tracing of orthokit from outside the package.

The tracer replaces each layer's entry point, under every name a caller
looks it up by (``orthokit.check.is_half_dimension_orthogoval`` and
``orthokit.explore.is_half_dimension_orthogoval`` are one function bound
to two names), with a wrapper that records a span: name, start, end and
the id of the enclosing span.  Spans stay in memory and are written out
once, when the run ends; self times are derived from them afterwards.

GF element operations are called tens of millions of times, so they are
counted, not timed: their cost lands in the self time of the enclosing
span and in the tracing overhead the run reports.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import orthokit
from orthokit import bounds, build, bundle, check, cli, explore, geom, gf

# every module whose namespace may hold a name for a traced function
MODULES = (orthokit, gf, geom, check, build, explore, bundle, bounds, cli)


def _bundle_bytes(note, args, out):
    return os.path.getsize(args[0])


def _search_nodes(note, args, out):
    return out.nodes


def _packed_keys(note, args, out):
    return len(out)


def _lines_cold(g):
    return g._lines is None


def _line_rows(cold, args, out):
    return len(out) if cold else 0


def _triples_hit(space):
    return space._triples is not None


def _hit(hit, args, out):
    return int(hit)


# (owner, attribute, span name, pre hook, post hook).  A pre hook sees
# the call's positional arguments before it runs; a post hook turns its
# note, those arguments and the result into the span's value.
SPANS = (
    (gf, "field_create", "gf.field_create", None, None),
    (geom.Geometry, "lines", "geom.lines", _lines_cold, _line_rows),
    (geom.Geometry, "flats", "geom.flats", None, None),
    (geom.Geometry, "rank_of", "geom.rank_of", None, None),
    (check, "packed_triples", "check.pack", None, _packed_keys),
    (check.Space, "triples", "check.triples", _triples_hit, _hit),
    (check, "are_mutually_orthogoval", "check.family", None, None),
    (check, "is_k_orthogoval_pair", "check.pair", None, None),
    (check, "naive_k_orthogoval_pair", "check.naive", None, None),
    (check, "is_askew_pair", "check.askew", None, None),
    (check, "is_half_dimension_orthogoval", "check.half_dim", None, None),
    (build, "build_phi_family", "build.phi_family", None, None),
    (build, "build_phi_map", "build.phi_map", None, None),
    (build, "phi_space", "build.phi_space", None, None),
    (build, "build_char_p_pair", "build.char_p_pair", None, None),
    (build, "build_askew_pair", "build.askew_pair", None, None),
    (build, "catalog_family", "build.catalog_family", None, None),
    (explore, "exponent_scan", "explore.exponent_scan", None, None),
    (explore, "power_chain", "explore.power_chain", None, None),
    (explore, "phi_half_dim_probe", "explore.phi_half_dim_probe", None, None),
    (explore, "half_dim_exhaustive", "explore.half_dim", None, _search_nodes),
    (explore, "_gl_point_perms", "explore.gl_perms", None, None),
    (bundle, "write_bundle", "bundle.write", None, _bundle_bytes),
    (bundle, "read_bundle", "bundle.read", None, _bundle_bytes),
    (bounds, "bound_report", "bounds.report", None, None),
    (cli, "main", "cli.main", None, None),
)

# counted without a span
COUNTS = (
    (gf.GF, "add", "gf.add"),
    (gf.GF, "sub", "gf.sub"),
    (gf.GF, "mul", "gf.mul"),
    (gf.GF, "neg", "gf.neg"),
    (gf.GF, "inv", "gf.inv"),
    (geom.Geometry, "span", "geom.span"),
)


class Tracer:
    """Spans ``[id, parent id, name, start, end, value]`` and call counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {name: 0 for _, _, name in COUNTS}
        self._patches = []
        for owner, attr, name, pre, post in SPANS:
            self._plan(owner, attr, self._span_wrapper(
                name, getattr(owner, attr), pre, post))
        for owner, attr, name in COUNTS:
            self._plan(owner, attr, self._count_wrapper(name, getattr(owner, attr)))

    def _plan(self, owner, attr, wrapper):
        """Patch a method on its class, or a function under every name any
        orthokit module binds it to."""
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(m, name) for m in MODULES
                       for name, value in vars(m).items() if value is original]
        self._patches += [(o, name, original, wrapper) for o, name in targets]

    def _span_wrapper(self, name, fn, pre, post):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            note = pre(*args) if pre else None
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if post:
                rec[5] = post(note, args, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name, value=None):
        """Span with no traced caller, such as one benchmark case."""
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name,
               time.perf_counter(), 0.0, value]
        self.spans.append(rec)
        self.stack.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, counts=self.counts, spans=self.spans), fh,
                      separators=(",", ":"))
            fh.write("\n")


# ----------------------------------------------------------------------
# per-layer metrics from the spans
# ----------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals.  A ``*_s`` total of a layer that can nest in
    itself (flats in flats, builders in builders) counts only the
    outermost span, so no interval is counted twice; a ``*_self_s``
    total subtracts the spans nested in it."""
    spans = tracer.spans
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            child[s[1]] += d

    def total(prefix):
        """Duration of spans named ``prefix...`` not nested in another."""
        out = 0.0
        for s in spans:
            if not s[2].startswith(prefix):
                continue
            p = s[1]
            while p >= 0 and not spans[p][2].startswith(prefix):
                p = spans[p][1]
            if p < 0:
                out += dur[s[0]]
        return out

    def self_time(name):
        return sum((dur[s[0]] - child[s[0]] for s in spans if s[2] == name), 0.0)

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def values(name):
        return sum(s[5] or 0 for s in spans if s[2] == name)

    c = tracer.counts
    keys = values("check.pack")
    triples_calls = calls("check.triples")
    nodes = values("explore.half_dim")
    explore_self = self_time("explore.half_dim")
    return {
        "gf.field_create_s": total("gf.field_create"),
        "gf.elem_ops": sum(c[k] for k in ("gf.add", "gf.sub", "gf.mul",
                                          "gf.neg", "gf.inv")),
        "geom.lines_s": total("geom.lines"),
        "geom.line_rows": values("geom.lines"),
        "geom.flats_s": total("geom.flats"),
        "geom.span_calls": c["geom.span"],
        "geom.rank_of_s": total("geom.rank_of"),
        "geom.rank_of_calls": calls("geom.rank_of"),
        "check.pack_s": total("check.pack"),
        "check.pack_calls": calls("check.pack"),
        "check.keys_packed": keys,
        "check.key_mb": keys * 8 / 1e6,
        "check.triples_calls": triples_calls,
        "check.triples_cache_hit_ratio": (values("check.triples") / triples_calls
                                          if triples_calls else 0.0),
        "check.family_self_s": self_time("check.family"),
        "check.pair_self_s": self_time("check.pair"),
        "check.askew_s": total("check.askew"),
        "check.half_dim_s": total("check.half_dim"),
        "check.half_dim_calls": calls("check.half_dim"),
        "check.naive_s": total("check.naive"),
        "build.s": total("build."),
        "explore.gl_perms_s": total("explore.gl_perms"),
        "explore.nodes": nodes,
        "explore.self_s": explore_self,
        "explore.us_per_node": explore_self / nodes * 1e6 if nodes else 0.0,
        "explore.leaf_checks": sum(1 for s in spans if s[2] == "check.half_dim"
                                   and s[1] >= 0
                                   and spans[s[1]][2] == "explore.half_dim"),
        "bundle.write_s": total("bundle.write"),
        "bundle.read_s": total("bundle.read"),
        "bundle.bytes": values("bundle.write") + values("bundle.read"),
        "bounds.report_s": total("bounds.report"),
        "cli.self_s": self_time("cli.main"),
    }
