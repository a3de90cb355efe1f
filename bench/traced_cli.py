"""Run ``triarb.cli.main`` with spans around the layer functions it calls.

Usage: python3 traced_cli.py TRACE_JSON -- <triarb arguments>

The functions that ``triarb.cli`` imports from the layer modules are wrapped
in place in the ``triarb.cli`` namespace, so the spans follow the CLI's own
call sequence and nothing in the package changes. Spans and counters stay in
memory and are written to TRACE_JSON once ``main`` returns; that file must
lie outside the command's --out-dir.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

# cli name -> (layer, span key); every other write_* counts as cli emit
LAYER_FUNCTIONS = {
    "generate": ("synth", "generate"),
    "write_pair_series_csv": ("synth", "write"),
    "load_pair_series": ("market_data", "load"),
    "align_triangle": ("market_data", "align"),
    "compute_rate_products": ("rate_product", "compute"),
    "segment_opportunities": ("opportunity", "segment"),
    "duration_stats": ("opportunity", "stats"),
    "threshold_table": ("opportunity", "stats"),
    "merge_distribution_points": ("opportunity", "stats"),
    "distribution_stats": ("opportunity", "stats"),
    "hourly_profile": ("seasonal", "profile"),
    "daily_profile": ("seasonal", "profile"),
    "filter_trades": ("simulator", "filter"),
    "simulate_trades": ("simulator", "summary"),
    "surface_for_trades": ("simulator", "surface"),
    "profit_curves_for_trades": ("simulator", "curves"),
    "break_even_for_trades": ("simulator", "break_even"),
    "_write_manifest": ("cli", "emit"),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts = {"quoted_seconds": 0, "grid_seconds": 0, "trades": [],
                       "bytes_written": 0, "rss_before_load_kb": None,
                       "rss_after_load_kb": None}
        self.loaded_paths: list[str] = []
        self.opportunities: list[list] = []

    def wrap(self, name, fn, layer, key):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "load_pair_series" and self.counts["rss_before_load_kb"] is None:
                self.counts["rss_before_load_kb"] = _maxrss_kb()
            index = len(self.spans)
            span = {"name": name, "layer": layer, "key": key,
                    "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        c = self.counts
        if name == "load_pair_series":
            self.loaded_paths.append(str(args[0]))
            c["quoted_seconds"] += len(result) - result.n_missing
            c["rss_after_load_kb"] = _maxrss_kb()
        elif name == "compute_rate_products":
            c["grid_seconds"] = len(result[0])
        elif name == "segment_opportunities":
            self.opportunities.extend(
                [op.start, op.run_length, op.direction.value, op.magnitude_bp] for op in result
            )
        elif name == "filter_trades":
            c["trades"].append(len(result))
        elif name == "write_pair_series_csv":
            c["bytes_written"] += os.path.getsize(args[0])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "loaded_paths": self.loaded_paths,
                       "opportunities": self.opportunities}, fh)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def install(cli_module) -> Tracer:
    tracer = Tracer()
    for name in dir(cli_module):
        if name in LAYER_FUNCTIONS:
            layer, key = LAYER_FUNCTIONS[name]
        elif name.startswith("write_"):
            layer, key = LAYER_FUNCTIONS["_write_manifest"]
        else:
            continue
        fn = getattr(cli_module, name)
        if callable(fn):
            setattr(cli_module, name, tracer.wrap(name, fn, layer, key))
    return tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py TRACE_JSON -- <triarb arguments>", file=sys.stderr)
        return 2
    from triarb import cli

    tracer = install(cli)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
