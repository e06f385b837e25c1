"""In-memory spans and counters around ghcert's public functions.

Every wrapper lives here, in the benchmark; no file of the program changes.
A span records (name, start, end, parent span, request id). Counters are
taken at the same boundaries. `layer_metrics` turns spans and counters into
the per-layer numbers: busy seconds are self time, a span's duration minus
the time its child spans cover.
"""

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _weyl_levels(tr, args, out, nested):
    tr.count("rootsystem.weyl_elements_enumerated", sum(len(level) for level in out))


def _weyl_level(tr, args, out, nested):
    tr.count("rootsystem.weyl_level_len", len(out))


def _kostant(tr, args, out, nested):
    # the Weyl elements of length r listed inside the call are the ones scanned
    tr.count("kostant.scanned", nested)
    tr.count("kostant.included", len(out.summands))


def _genericity(tr, args, out, nested):
    tr.count("genericity.accepted", int(out.passed))


def _cond2(tr, args, out, nested):
    tr.count("genericity.cond2_enumerated", out.enumerated_count)


def _parabolic(tr, args, out, nested):
    tr.maximum("parabolic.dim_n_max", out.n.dim)


def _module(tr, args, out, nested):
    tr.count("oracle.module_dim_sum", out.dim)


def _complex(tr, args, out, nested):
    tr.count("oracle.cochain_dim_sum", sum(len(w) for w in out.weights))


def _rref(tr, args, out, nested):
    m = args[0]
    tr.maximum("linalg.rref_in_place.max_cells", len(m) * (len(m[0]) if m else 0))


# (span name, module, attribute, size hook). An attribute "Class.method"
# wraps a method or property on the class; a plain name is rebound in every
# ghcert module that imported it.
TARGETS = [
    ("algebra.build_algebra", "ghcert.algebra", "build_algebra", None),
    ("algebra.killing_matrix", "ghcert.algebra", "LieAlgebra.killing_matrix", None),
    ("rootsystem.weyl_by_length", "ghcert.rootsystem", "RootSystem.weyl_by_length", _weyl_levels),
    ("rootsystem.weyl_elements_of_length", "ghcert.rootsystem",
     "RootSystem.weyl_elements_of_length", _weyl_level),
    ("kostant.kostant_cohomology", "ghcert.kostant", "kostant_cohomology", _kostant),
    ("kostant.verify_vanishing", "ghcert.kostant", "verify_vanishing", None),
    ("embedding.close_generators", "ghcert.embedding", "close_generators", None),
    ("embedding.make_embedding", "ghcert.embedding", "make_embedding", None),
    ("embedding.verify_reductive", "ghcert.embedding", "verify_reductive", None),
    ("embedding.is_ideal", "ghcert.embedding", "is_ideal", None),
    ("embedding.split_off_contained_ideals", "ghcert.embedding",
     "split_off_contained_ideals", None),
    ("embedding.choose_regular", "ghcert.embedding", "choose_regular", None),
    ("parabolic.build_parabolic", "ghcert.parabolic", "build_parabolic", _parabolic),
    ("parabolic.rho_vectors", "ghcert.parabolic", "rho_vectors", None),
    ("borel.build_borel", "ghcert.borel", "build_borel", None),
    ("genericity.find_generic_nu", "ghcert.genericity", "find_generic_nu", None),
    ("genericity.evaluate_genericity", "ghcert.genericity", "evaluate_genericity", _genericity),
    ("genericity.check_condition_2", "ghcert.genericity", "check_condition_2", _cond2),
    ("oracle.construct_module", "ghcert.oracle", "construct_module", _module),
    ("oracle.build_complex", "ghcert.oracle", "build_complex", _complex),
    ("oracle.ce_cohomology", "ghcert.oracle", "ce_cohomology", None),
    ("oracle.decompose_as_m_module", "ghcert.oracle", "decompose_as_m_module", None),
    ("linalg.rref_in_place", "ghcert.linalg.matrix", "rref_in_place", _rref),
    ("certify.parse_input", "ghcert.certify", "parse_input", None),
    ("certify.certify", "ghcert.certify", "certify", None),
    ("certify.verify_certificate", "ghcert.certify", "verify_certificate", None),
    ("cli.main", "ghcert.cli", "main", None),
]

# called far too often for a span each; only counted
COUNTED = [("algebra.bracket", "ghcert.algebra", "LieAlgebra.bracket")]


class Tracer:
    """Spans and counters of one process; `install` puts the wrappers in."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.stack = []
        self.counters = defaultdict(int)
        self.request = None

    def count(self, key, n=1):
        self.counters[key] += n

    def maximum(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def wrap(self, name, fn, hook):
        tr = self

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, tr.stack[-1] if tr.stack else None, tr.request]
            tr.stack.append(len(tr.spans))
            tr.spans.append(rec)
            listed = tr.counters["rootsystem.weyl_level_len"]
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tr.stack.pop()
            tr.counters[name + ".calls"] += 1
            if hook is not None:
                hook(tr, args, out, tr.counters["rootsystem.weyl_level_len"] - listed)
            return out

        return traced

    def counted(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target. Call after the program's modules are imported."""
        for name, modname, attr, hook in TARGETS:
            self._replace(modname, attr, lambda fn, n=name, h=hook: self.wrap(n, fn, h))
        for name, modname, attr in COUNTED:
            self._replace(modname, attr, lambda fn, n=name: self.counted(n, fn))

    @staticmethod
    def _replace(modname, attr, make):
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, property):
                setattr(cls, meth, property(make(orig.fget)))
            else:
                setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if name == "ghcert" or name.startswith("ghcert."):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)

    def dump(self, path):
        """Write the spans as JSON lines, then one line with the counters."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def read_dump(path):
    spans, counters = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters = rec["counters"]
            else:
                spans.append(rec)
    return spans, counters


def self_times(spans):
    """name -> summed self time, where self time is a span's duration minus
    the time its direct children cover (children of one span never overlap:
    calls nest on a single thread)."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    busy = defaultdict(float)
    for s in spans:
        busy[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return busy


def layer_metrics(busy, counters):
    """Every per-layer metric of the benchmark notes, by name."""
    out = {}
    for name, _, _, _ in TARGETS:
        out[name + ".busy_s"] = busy.get(name, 0.0)
        out[name + ".calls"] = counters.get(name + ".calls", 0)
    for name, _, _ in COUNTED:
        out[name + ".calls"] = counters.get(name + ".calls", 0)
    for key in ("certify.certify", "certify.verify_certificate", "cli.main",
                "oracle.ce_cohomology"):
        out[key + ".self_s"] = busy.get(key, 0.0)
    for key in ("rootsystem.weyl_elements_enumerated", "genericity.cond2_enumerated",
                "parabolic.dim_n_max", "oracle.module_dim_sum", "oracle.cochain_dim_sum",
                "linalg.rref_in_place.max_cells"):
        out[key] = counters.get(key, 0)
    out["genericity.candidates_tried"] = counters.get("genericity.evaluate_genericity.calls", 0)
    out["rootsystem.weyl_level_yield"] = _ratio(
        counters.get("rootsystem.weyl_level_len", 0),
        counters.get("rootsystem.weyl_elements_enumerated", 0))
    out["kostant.summand_yield"] = _ratio(
        counters.get("kostant.included", 0), counters.get("kostant.scanned", 0))
    out["genericity.accept_ratio"] = _ratio(
        counters.get("genericity.accepted", 0), out["genericity.candidates_tried"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def merge_counters(total, counters):
    for key, value in counters.items():
        if key.endswith("_max") or key.endswith(".max_cells"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
