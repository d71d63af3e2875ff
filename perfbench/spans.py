"""In-memory span recorder for the traced benchmark run.

``SpanRecorder.install`` replaces every public function of the projgeo
layer modules with a wrapper, in every module namespace that binds the
function (the package namespace included), so calls between modules
through ``from ... import`` names are recorded too.  The
``__post_init__`` validators of ProjPoint, ProjMap, Subspace and
HopfPoint are wrapped as well.  Each span keeps its name, start, end,
parent span and op id in plain lists; nothing is written until the run
ends.  ``uninstall`` restores the original bindings.

A span's self time is its duration minus the part its child spans
cover; an exception is charged once, to the innermost span it left.
"""

import functools
import importlib
from types import FunctionType
from time import perf_counter_ns

import numpy as np

from projgeo.errors import ProjGeoError

LAYERS = (
    "numerics",
    "projective",
    "grassmann",
    "hopf_manifold",
    "hopf_fibration",
    "jsonio",
    "cli",
    "suites",
)
POST_INITS = (
    ("projective", "ProjPoint"),
    ("projective", "ProjMap"),
    ("grassmann", "Subspace"),
    ("hopf_manifold", "HopfPoint"),
)
_CHARGED = "_perfbench_charged"


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.errors: list[tuple[int, bool]] = []  # (span, typed)
        self.op_id = -1
        self.cond_args: list = []  # arguments of cond_estimate, tested later
        self.ortho_given = 0
        self.ortho_kept = 0
        self.pair_evals = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- counters noted after a span closes, kept cheap ------------------

    def _note_cond(self, args, kwargs, out):
        self.cond_args.append(args[0] if args else kwargs["m"])

    def _note_ortho(self, args, kwargs, out):
        self.ortho_given += np.shape(args[0] if args else kwargs["m"])[1]
        self.ortho_kept += out.shape[1]

    def _note_link(self, args, kwargs, out):
        m = args[2] if len(args) > 2 else kwargs["m"]
        self.pair_evals += m * m

    def _wrap(self, name, fn, note=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.end)
            self.parent.append(stack[-1] if stack else -1)
            self.name_id.append(nid)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._charge(exc, idx)
                raise
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if note is not None:
                note(args, kwargs, out)
            return out

        return span

    def _charge(self, exc, idx):
        if getattr(exc, _CHARGED, False):
            return
        try:
            setattr(exc, _CHARGED, True)
        except AttributeError:
            pass
        self.errors.append((idx, isinstance(exc, ProjGeoError)))

    def install(self):
        package = importlib.import_module("projgeo")
        modules = {layer: importlib.import_module(f"projgeo.{layer}") for layer in LAYERS}
        notes = {
            "numerics.cond_estimate": self._note_cond,
            "numerics.orthonormalize": self._note_ortho,
            "hopf_fibration.linking_integral": self._note_link,
        }
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, notes.get(name))
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, FunctionType) and obj in wrapped:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[obj])
        for layer, cls_name in POST_INITS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}.post_init", original)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summaries ---------------------------------------------------------

    def self_times(self):
        """(name id, duration ns, self ns, parent) arrays over all spans."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        return nid, dur, dur - child, parent

    def layer_metrics(self):
        """Per-layer and per-span metrics, keyed as the benchmark reports them."""
        nid, dur, own, _ = self.self_times()
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_ns = np.bincount(nid, weights=own, minlength=k)
        out = {}
        for layer in LAYERS:
            ids = [i for i, name in enumerate(self.names) if name.split(".")[0] == layer]
            out[f"{layer}.calls"] = int(calls[ids].sum())
            out[f"{layer}.self_s"] = float(self_ns[ids].sum()) / 1e9
            out[f"{layer}.errors_typed"] = 0
            out[f"{layer}.errors_untyped"] = 0
        for idx, typed in self.errors:
            layer = self.names[nid[idx]].split(".")[0]
            out[f"{layer}.errors_typed" if typed else f"{layer}.errors_untyped"] += 1
        per_name = {
            name: (int(calls[i]), float(self_ns[i]) / 1e9) for i, name in enumerate(self.names)
        }
        return out, per_name

    def unitary_share(self):
        """Share of cond_estimate arguments that are unitary up to scale."""
        if not self.cond_args:
            return 0.0
        hits = 0
        for m in self.cond_args:
            a = np.asarray(m)
            g = a.conj().T @ a
            scale = np.trace(g).real / a.shape[1]
            hits += scale > 0 and float(np.max(np.abs(g / scale - np.eye(a.shape[1])))) < 1e-10
        return hits / len(self.cond_args)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i, (n, s, e, p, o) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent, self.op)
            ):
                fh.write(f"{i},{self.names[n]},{s},{e},{p},{o}\n")
