"""In-memory spans around the public functions of each bollobas_lab module.

The tracer wraps functions and methods from the outside: it replaces module
attributes and class attributes with wrappers and puts the originals back on
``uninstall``.  Nothing inside the library changes.  Every call to a wrapped
function records one span (function, start, end, parent span, item id) in
flat arrays; the spans are aggregated into per-layer metrics and written out
as JSON lines after the run.

Metric names are ``<layer>.<group>.<calls|self_s|total_s>``:

* ``calls``   -- entries into the group that are not nested inside another
                 entry of the same group (recursion and delegation such as
                 ``SumSpace.norm -> Space.norm`` count once);
* ``self_s``  -- time inside the group's spans minus the time covered by
                 their child spans (any wrapped function);
* ``total_s`` -- wall time of the outermost spans of the group.

The ``_search`` module's groups are named ``search.*``, since a metric name
must start with a letter.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

import numpy as np

FEAS_TOL = 1e-12


# (group, stat names, [(module, owner, attribute)], role)
# owner None: a module-level function, replaced in every bollobas_lab module
# that imported it; "subclasses:C": every subclass of C defining attribute;
# "instances:C": a callable field set on each new instance of C; otherwise
# a class of the module.  Role "probe" marks the probe entry points (their
# eps bounds feasibility), role "oracle" the distance oracles.
LAYERS = [
    ("spaces.lp_norm", ("calls", "self_s"),
     [("spaces", None, "lp_norm")], None),
    ("spaces.norm", ("calls", "self_s"),
     [("spaces", "Space", "norm"), ("spaces", "SumSpace", "norm")], None),
    ("spaces.sum_split", ("calls", "self_s"),
     [("spaces", "SumSpace", "split"), ("spaces", "SumSpace", "join")], None),
    ("spaces.duality_map", ("calls", "self_s"),
     [("spaces", None, "duality_map")], None),
    ("spaces.pair", ("calls", "self_s"), [("spaces", None, "pair")], None),
    ("spaces.modulus_convexity", ("calls", "total_s"),
     [("spaces", None, "modulus_convexity")], None),
    ("search.boyd_ascent", ("calls", "self_s"),
     [("_search", None, "boyd_ascent")], None),
    ("search.generic_power_ascent", ("calls", "self_s"),
     [("_search", None, "generic_power_ascent")], None),
    ("search.align_vec", ("calls", "self_s"),
     [("_search", None, "dual_align_vec"),
      ("_search", None, "primal_align_vec")], None),
    ("search.row_kernels", ("calls", "self_s"),
     [("_search", None, "row_norms"), ("_search", None, "normalize_rows"),
      ("_search", None, "dual_align_rows"),
      ("_search", None, "primal_align_rows")], None),
    ("search.golden_max", ("calls", "total_s"),
     [("_search", None, "golden_max")], None),
    ("search.run_batches", ("calls", "total_s"),
     [("_search", None, "run_batches")], None),
    ("norm_attainment.operator_norm", ("calls", "total_s", "self_s"),
     [("norm_attainment", None, "operator_norm")], None),
    ("norm_attainment.norming_set", ("calls", "total_s"),
     [("norm_attainment", None, "norming_set")], None),
    ("norm_attainment.distance", ("calls", "self_s"),
     [("norm_attainment", "subclasses:NormingSetDescriptor", "distance"),
      ("norm_attainment", None, "support_distance"),
      ("norm_attainment", None, "subspace_sphere_distance")], "oracle"),
    ("numerical_radius.numerical_radius", ("calls", "total_s", "self_s"),
     [("numerical_radius", None, "numerical_radius")], None),
    ("numerical_radius.nu_attaining_states", ("calls", "total_s"),
     [("numerical_radius", None, "nu_attaining_states")], None),
    ("numerical_radius.pair_distance", ("calls", "self_s"),
     [("numerical_radius", "subclasses:NuStatesDescriptor", "pair_distance")],
     "oracle"),
    ("numerical_radius.face_sup", ("calls", "self_s"),
     [("numerical_radius", None, "face_sup")], None),
    ("numerical_radius.best_state_functional", ("calls", "self_s"),
     [("numerical_radius", None, "best_state_functional")], None),
    ("probe.eta_probe_norm", ("calls", "total_s", "self_s"),
     [("probe", None, "eta_probe_norm")], "probe"),
    ("probe.eta_probe_nu", ("calls", "total_s", "self_s"),
     [("probe", None, "eta_probe_nu")], "probe"),
    ("probe.aligned_state_functional", ("calls", "self_s"),
     [("probe", None, "aligned_state_functional")], None),
    ("probe.validate_eta", ("calls", "total_s"),
     [("probe", None, "validate_eta")], None),
    ("operators.to_matrix", ("calls", "total_s"),
     [("operators", None, "to_matrix")], None),
    ("operators.apply", ("calls", "total_s"),
     [("operators", None, "apply")], None),
    ("sequences.materialize", ("calls", "total_s"),
     [("sequences", "SequenceSpec", "materialize")], None),
    ("membership.verdict", ("calls", "total_s"),
     [("membership", None, "diag_norm_member"),
      ("membership", None, "diag_nu_member"),
      ("membership", None, "diag_mixed_member"),
      ("membership", None, "projection_member"),
      ("membership", None, "functional_member")], None),
    ("membership.witness_generate", ("calls", "total_s"),
     [("membership", "instances:WitnessRecipe", "generate")], None),
    ("membership.eta_floor", ("calls", "total_s"),
     [("membership", None, "diag_norm_eta_floor"),
      ("membership", None, "diag_nu_eta_floor")], None),
    ("sums.transfer", ("calls", "total_s"),
     [("sums", None, "lift_nu_implies_norm"),
      ("sums", None, "norm_implies_lift_nu")], None),
    ("sums.counterexample", ("calls", "total_s"),
     [("sums", None, "psum_counterexample"),
      ("sums", None, "corner_counterexample")], None),
    ("gallery.build", ("calls", "total_s"),
     [("gallery", None, "gallery"), ("gallery", None, "parse_gallery_uri"),
      ("gallery", None, "lifted_rank1_l1")], None),
    ("gallery.run_claims", ("calls", "total_s", "self_s"),
     [("gallery", "GalleryEntry", "run_claims")], None),
    ("cli.main", ("calls", "total_s", "self_s"),
     [("cli", None, "main")], None),
]

DERIVED = ("probe.distance_calls_per_probe", "probe.feasible_ratio",
           "trace.overhead_frac")


def metric_names():
    """Every per-layer metric name the traced run reports, in order."""
    names = [f"{group}.{stat}" for group, stats, _t, _v in LAYERS
             for stat in stats]
    return names + list(DERIVED)


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "probe.distance_calls_per_probe":
        return "count"
    return "ratio"


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Span recorder; install() wraps, uninstall() restores the originals."""

    def __init__(self):
        self.groups = [g for g, _s, _t, _r in LAYERS]
        self.fnames = []                      # function id -> qualified name
        self.fgroup = []                      # function id -> group id
        self.fid = array("i")                 # per span
        self.parent = array("i")
        self.item = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.depth = [0] * len(self.groups)
        self.stack = [-1]
        self.item_id = -1
        # probe feasibility counters, kept while recording
        self.probe_eps = None
        self.oracle_depth = 0
        self.probes = 0
        self.oracle_calls = 0
        self.feasible = 0
        self._undo = []

    # -- recording --------------------------------------------------------

    def _register(self, qualname, gid):
        self.fnames.append(qualname)
        self.fgroup.append(gid)
        return len(self.fnames) - 1

    def _wrap(self, fn, qualname, gid, role, fid=None):
        if fid is None:
            fid = self._register(qualname, gid)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tr.start)
            tr.fid.append(fid)
            tr.parent.append(tr.stack[-1])
            tr.item.append(tr.item_id)
            tr.outer.append(tr.depth[gid] == 0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.depth[gid] += 1
            tr.stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                tr.depth[gid] -= 1
                tr.start[sid] = t0
                tr.end[sid] = t1

        if role == "probe":
            return functools.wraps(fn)(self._probe_hook(traced))
        if role == "oracle":
            return functools.wraps(fn)(self._oracle_hook(traced))
        return traced

    def _probe_hook(self, traced):
        tr = self

        def probe(*args, **kwargs):
            prev = tr.probe_eps
            if prev is None:
                tr.probes += 1
                tr.probe_eps = float(kwargs["eps"] if "eps" in kwargs
                                     else args[1])
            try:
                return traced(*args, **kwargs)
            finally:
                tr.probe_eps = prev

        return probe

    def _oracle_hook(self, traced):
        """Counts the outermost oracle calls made inside a probe and those
        whose distance clears the probe's eps (a feasible point)."""
        tr = self

        def oracle(*args, **kwargs):
            top = tr.oracle_depth == 0
            tr.oracle_depth += 1
            try:
                out = traced(*args, **kwargs)
            finally:
                tr.oracle_depth -= 1
            if top and tr.probe_eps is not None:
                d = max(out) if isinstance(out, tuple) else out
                tr.oracle_calls += 1
                tr.feasible += float(d) >= tr.probe_eps - FEAS_TOL
            return out

        return oracle

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {name.split(".", 1)[1] if "." in name else "": m
                for name, m in sys.modules.items()
                if name == "bollobas_lab" or name.startswith("bollobas_lab.")}
        for gid, (_group, _stats, targets, role) in enumerate(LAYERS):
            for modname, owner, attr in targets:
                mod = mods[modname]
                if owner is None:
                    orig = getattr(mod, attr)
                    w = self._wrap(orig, f"{modname}.{attr}", gid, role)
                    for m in mods.values():
                        for name, val in list(vars(m).items()):
                            if val is orig:
                                self._set(m, name, w)
                elif owner.startswith("subclasses:"):
                    base = getattr(mod, owner.split(":", 1)[1])
                    for cls in _subclasses(base):
                        if attr in cls.__dict__:
                            qual = (f"{cls.__module__.split('.')[-1]}."
                                    f"{cls.__name__}.{attr}")
                            self._set(cls, attr, self._wrap(
                                cls.__dict__[attr], qual, gid, role))
                elif owner.startswith("instances:"):
                    self._wrap_instance_attr(
                        getattr(mod, owner.split(":", 1)[1]), attr, modname,
                        gid, role)
                else:
                    cls = getattr(mod, owner)
                    self._set(cls, attr, self._wrap(
                        cls.__dict__[attr], f"{modname}.{owner}.{attr}", gid,
                        role))

    def _wrap_instance_attr(self, cls, attr, modname, gid, role):
        """Wrap a callable stored per instance (a dataclass field) right
        after each instance is constructed."""
        orig_init = cls.__init__
        tr = self
        qual = f"{modname}.{cls.__name__}.{attr}"
        fid = self._register(qual, gid)

        def init(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            setattr(obj, attr, tr._wrap(getattr(obj, attr), qual, gid, role,
                                        fid))

        self._set(cls, "__init__", init)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- aggregation ------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.fid, dtype=np.int32))

    def aggregate(self):
        """Per-layer metrics over every recorded span; also sets
        ``inclusive_s``, the outermost-span time of every group."""
        start, end, parent, fid = self._arrays()
        n, ng = len(start), len(self.groups)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        gid = np.asarray(self.fgroup, dtype=np.int64)[fid]
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        self_s = np.bincount(gid, weights=dur - child, minlength=ng)
        calls = np.bincount(gid[outer], minlength=ng)
        total_s = np.bincount(gid[outer], weights=dur[outer], minlength=ng)
        out = {}
        for g, (group, stats, _t, _r) in enumerate(LAYERS):
            vals = {"calls": int(calls[g]), "self_s": float(self_s[g]),
                    "total_s": float(total_s[g])}
            for stat in stats:
                out[f"{group}.{stat}"] = vals[stat]
        self.inclusive_s = {group: float(total_s[g])
                            for g, group in enumerate(self.groups)}
        out["probe.distance_calls_per_probe"] = \
            self.oracle_calls / self.probes if self.probes else 0.0
        out["probe.feasible_ratio"] = \
            self.feasible / self.oracle_calls if self.oracle_calls else 0.0
        return out

    def write_spans(self, path, item_kinds, chunk=65536):
        """Gzipped JSON lines: a header object naming the fields, the
        functions and the kind of each item (its route first), then one
        array per span [id, function index, start, end, parent id, item
        id]; times in seconds from the first span, parent -1 at top level,
        item -1 for set-up."""
        start, end, parent, fid = self._arrays()
        t_ref = start[0] if len(start) else 0.0
        item = np.frombuffer(self.item, dtype=np.int32)
        header = {"fields": ["id", "name", "start", "end", "parent", "item"],
                  "names": self.fnames,
                  "groups": [self.groups[g] for g in self.fgroup],
                  "items": list(item_kinds)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for a in range(0, len(start), chunk):
                b = min(len(start), a + chunk)
                rows = zip(range(a, b), fid[a:b].tolist(),
                           (start[a:b] - t_ref).tolist(),
                           (end[a:b] - t_ref).tolist(),
                           parent[a:b].tolist(), item[a:b].tolist())
                fh.write("".join(f"[{s},{f},{x:.7f},{y:.7f},{p},{i}]\n"
                                 for s, f, x, y, p, i in rows))
