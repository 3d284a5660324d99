"""Span tracing of aspanel's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent).  A function imported by name into another
module, such as ``study.attribute`` or ``attribution.gini_ranks``, is
patched in every module that binds it, not only where it is defined.  Spans
stay in memory until ``write`` is called; ``layer_metrics`` derives self
times and counts from them.
"""

from __future__ import annotations

import functools
import json
import time

# (span name, module, attribute path) for every traced callable
TRACED = (
    ("panel.read_events_jsonl", "panel", "read_events_jsonl"),
    ("panel.ingest_events", "panel", "ingest_events"),
    ("panel.save", "panel", "FeaturePanel.save"),
    ("panel.load", "panel", "FeaturePanel.load"),
    ("cli.cmd_ingest", "cli", "cmd_ingest"),
    ("cli.cmd_attribute", "cli", "cmd_attribute"),
    ("cli.cmd_study", "cli", "cmd_study"),
    ("valuefn.evaluate", "valuefn", "ValueFunction.evaluate"),
    ("valuefn.gradient", "valuefn", "ValueFunction.gradient"),
    ("valuefn.gini_ranks", "valuefn", "gini_ranks"),
    ("attribution.attribute_analytic", "attribution", "attribute_analytic"),
    ("attribution.attribute_path_integral", "attribution", "attribute_path_integral"),
    ("attribution.attribute_temporal", "attribution", "attribute_temporal"),
    ("attribution.tier_shares", "attribution", "tier_shares"),
    ("study.sample_subset", "study", "sample_subset"),
    ("study.flip_study", "study", "flip_study"),
    ("scalingbias.optimal_rescale", "scalingbias", "optimal_rescale"),
    ("baselines.mask_values", "baselines", "CoalitionGame.mask_values"),
    ("baselines.value", "baselines", "CoalitionGame.value"),
    ("baselines.sampled_shapley", "baselines", "sampled_shapley"),
    ("baselines.sampled_banzhaf", "baselines", "sampled_banzhaf"),
    ("baselines.exact_shapley", "baselines", "exact_shapley"),
    ("baselines.exact_banzhaf", "baselines", "exact_banzhaf"),
)

MODULES = ("panel", "valuefn", "attribution", "baselines", "study", "scalingbias", "cli")

# per-layer metric -> (span names, "self" | "calls" | "rows")
LAYER_METRICS = {
    "panel.read_events_jsonl_s": (("panel.read_events_jsonl",), "self"),
    "panel.ingest_events_s": (("panel.ingest_events",), "self"),
    "panel.save_s": (("panel.save",), "self"),
    "panel.load_s": (("panel.load",), "self"),
    "cli.ingest_self_s": (("cli.cmd_ingest",), "self"),
    "cli.attribute_write_s": (("cli.cmd_attribute",), "self"),
    "cli.study_self_s": (("cli.cmd_study",), "self"),
    "valuefn.gradient_s": (("valuefn.gradient",), "self"),
    "valuefn.gradient_calls": (("valuefn.gradient",), "calls"),
    "valuefn.gini_ranks_s": (("valuefn.gini_ranks",), "self"),
    "valuefn.gini_ranks_calls": (("valuefn.gini_ranks",), "calls"),
    "valuefn.evaluate_s": (("valuefn.evaluate",), "self"),
    "valuefn.evaluate_calls": (("valuefn.evaluate",), "calls"),
    "attribution.analytic_s": (("attribution.attribute_analytic",), "self"),
    "attribution.analytic_calls": (("attribution.attribute_analytic",), "calls"),
    "attribution.path_integral_s": (("attribution.attribute_path_integral",), "self"),
    "attribution.path_integral_calls": (("attribution.attribute_path_integral",), "calls"),
    "attribution.temporal_s": (("attribution.attribute_temporal",), "self"),
    "attribution.tier_shares_s": (("attribution.tier_shares",), "self"),
    "study.sample_subset_s": (("study.sample_subset",), "self"),
    "study.sample_subset_calls": (("study.sample_subset",), "calls"),
    "study.flip_study_s": (("study.flip_study",), "self"),
    "scalingbias.optimal_rescale_s": (("scalingbias.optimal_rescale",), "self"),
    "scalingbias.optimal_rescale_calls": (("scalingbias.optimal_rescale",), "calls"),
    "baselines.mask_values_s": (("baselines.mask_values",), "self"),
    "baselines.coalition_rows": (("baselines.mask_values",), "rows"),
    "baselines.value_calls": (("baselines.value",), "calls"),
    "baselines.sampled_shapley_s": (("baselines.sampled_shapley",), "self"),
    "baselines.sampled_banzhaf_s": (("baselines.sampled_banzhaf",), "self"),
    "baselines.exact_s": (("baselines.exact_shapley", "baselines.exact_banzhaf"), "self"),
}


def _mask_rows(args) -> int:
    """Rows of the coalition matrix passed to CoalitionGame.mask_values."""
    masks = args[1] if len(args) > 1 else None
    return int(len(masks)) if masks is not None else 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, rows)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_rows = name == "baselines.mask_values"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id; filled in on return
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, _mask_rows(args) if count_rows else 0)

        return wrapper

    def install(self, package) -> None:
        modules = [getattr(package, m) for m in MODULES] + [package]
        for name, mod_name, attr in TRACED:
            owner = getattr(package, mod_name)
            if "." in attr:  # a method: patch the class, which every caller goes through
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in modules:  # every module that binds this function
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans
            ], fh)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self time, call count and mask rows per traced name."""
        self_time, calls, rows = {}, {}, {}
        child = [0.0] * len(self.spans)
        for sid, name, start, end, parent, nrows in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, name, start, end, parent, nrows in self.spans:
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[sid]
            calls[name] = calls.get(name, 0) + 1
            rows[name] = rows.get(name, 0) + nrows
        source = {"self": self_time, "calls": calls, "rows": rows}
        return {
            metric: sum(source[kind].get(n, 0) for n in names) / rounds
            for metric, (names, kind) in LAYER_METRICS.items()
        }
