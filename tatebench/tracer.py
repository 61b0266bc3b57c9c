"""Per-layer tracing of tatekit from outside the library.

``Tracer.install()`` wraps every public function and method of each
layer at every binding in the loaded ``tatekit`` modules: modules import
names directly (``from .exactlin import kernel_basis``, ``from ._backend
import smith_diagonal as _sparse_smith``), so patching the defining
module alone would miss those calls.  A layer is named after its module;
``elim`` is the elimination core behind ``tatekit._backend``.

Each wrapped call is a span.  A layer's self time is the sum of its
spans minus the wrapped child spans inside them; the tracer's own
bookkeeping is counted as child time, so it lands in no layer.  Size
counters are taken at the boundaries listed in ``_hooks``.
"""

import inspect
import sys
import time

# layer -> (module bound under tatekit, modules that define its functions)
LAYERS = {
    "groupring": ("groupring", ("groupring",)),
    "exactlin": ("exactlin", ("exactlin",)),
    "elim": ("_backend", ("_elim_py", "_elim_cy")),
    "resolve": ("resolve", ("resolve",)),
    "modpres": ("modpres", ("modpres",)),
    "tate": ("tate", ("tate",)),
    "surgery": ("surgery", ("surgery",)),
    "gallery": ("gallery", ("gallery",)),
}

# Group-ring arithmetic is a ring product or sum, so it is traced.
ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")

# O(1) accessors called up to millions of times per pass.  Wrapping
# them would multiply the traced run's time; their cost stays in the
# caller's self time.
SKIP = {
    "GroupRingElement.is_zero",
    "ElementaryAbelianGroup.zero",
    "ElementaryAbelianGroup.identity",
    "ElementaryAbelianGroup.mul_table",
    "ElementaryAbelianGroup.inverse_table",
    "ElementaryAbelianGroup.exponents",
    "ElementaryAbelianGroup.index_of",
}

COUNTERS = (
    "groupring.expand_cells",
    "exactlin.dense_cells",
    "exactlin.nnz",
    "elim.nnz_in",
    "elim.rows_in",
    "elim.rank_out",
    "elim.coeff_bits_max",
    "resolve.step_gens_sum",
    "resolve.window_calls",
    "resolve.window_builds",
    "modpres.pres_gens_sum",
    "modpres.pres_rels_sum",
)


def _bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.count = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    # -- size counters -------------------------------------------------

    def _matrix_args(self, args):
        for a in args:
            if isinstance(a, self._int_matrix):
                self.count["exactlin.dense_cells"] += a.rows * a.cols
                self.count["exactlin.nnz"] += sum(len(r) - r.count(0) for r in a.data)

    def _sparse_in(self, args):
        rows = args[0]
        self.count["elim.nnz_in"] += sum(len(r) for r in rows)
        self.count["elim.rows_in"] += len(rows)

    def _dense_in(self, args):
        mat, nrows = args[0], args[1]
        self.count["elim.nnz_in"] += sum(len(r) - r.count(0) for r in mat)
        self.count["elim.rows_in"] += nrows

    def _elim_out(self, rank, bits):
        self.count["elim.rank_out"] += rank
        if bits > self.count["elim.coeff_bits_max"]:
            self.count["elim.coeff_bits_max"] = bits

    def _hermite_out(self, out):
        pivots, free = out
        rows = [row for _, row in pivots] + list(free)
        self._elim_out(len(pivots), _bits(v for row in rows for v in row.values()))

    def _diagonal_out(self, out):
        self._elim_out(len(out), _bits(out))

    def _transform_out(self, out):
        s = out[0]
        rank = sum(1 for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i])
        self._elim_out(rank, _bits(v for m in out for row in m for v in row))

    def _add(self, key, n):
        self.count[key] += n

    def _hooks(self, tatekit):
        """(pre(args), post(result)) per traced ``layer.qualname``."""
        add = self._add
        hooks = {
            "groupring.GroupRingMatrix.expand": (
                None, lambda out: add("groupring.expand_cells", out.rows * out.cols)),
            "exactlin.IntMatrix.mul": (self._matrix_args, None),
            "elim.hermite": (self._sparse_in, self._hermite_out),
            "elim.smith_diagonal": (self._sparse_in, self._diagonal_out),
            "elim.smith_transform": (self._dense_in, self._transform_out),
            "resolve.resolution_step": (
                None, lambda out: add("resolve.step_gens_sum", out.kernel.gens)),
            "resolve.complete_resolution": (
                lambda args: add("resolve.window_calls", 1), None),
            "resolve.positive_resolution": (
                lambda args: add("resolve.window_builds", 1), None),
            "modpres.homology_module": (None, self._presentation_out),
        }
        for name, fn in vars(tatekit.exactlin).items():
            if inspect.isfunction(fn) and fn.__module__ == "tatekit.exactlin":
                hooks[f"exactlin.{name}"] = (self._matrix_args, None)
        return hooks

    def _presentation_out(self, out):
        self.count["modpres.pres_gens_sum"] += out.gens
        self.count["modpres.pres_rels_sum"] += out.relations.cols

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, layer, hook):
        pre, post = hook or (None, None)
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            if pre is not None:
                pre(args)
            child = [0.0]
            stack.append(child)
            done = False
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                t2 = clock()
                stack.pop()
                self_s[layer] += t2 - t1 - child[0]
                calls[layer] += 1
                if done and post is not None:
                    post(out)
                if stack:
                    stack[-1][0] += clock() - t0
            return out

        return traced

    def install(self):
        """Wrap the layers of the already imported ``tatekit`` package."""
        tatekit = sys.modules["tatekit"]
        self._int_matrix = tatekit.IntMatrix
        hooks = self._hooks(tatekit)
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, (bound, owners) in LAYERS.items():
            module = sys.modules[f"tatekit.{bound}"]
            owners = {f"tatekit.{o}" for o in owners}
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) not in owners:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer, hooks)
                elif callable(obj):
                    hook = hooks.get(f"{layer}.{name}")
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, hook))
        # Rebind every name that refers to a wrapped function.
        for modname, module in list(sys.modules.items()):
            if modname != "tatekit" and not modname.startswith("tatekit."):
                continue
            for name, obj in list(vars(module).items()):
                got = wrapped.get(id(obj))
                if got is not None and got[0] is obj:
                    setattr(module, name, got[1])

    def _wrap_class(self, cls, layer, hooks):
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if qual in SKIP or (name.startswith("_") and name not in ARITHMETIC):
                continue
            hook = hooks.get(f"{layer}.{qual}")
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, hook)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, hook)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, hook))

    # -- results -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls and self time per layer, plus the
        size counters and the ratios built from them."""
        c = self.count
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out["groupring.expand_cells"] = c["groupring.expand_cells"]
        out["exactlin.dense_cells"] = c["exactlin.dense_cells"]
        out["exactlin.nnz_frac"] = _ratio(c["exactlin.nnz"], c["exactlin.dense_cells"])
        out["elim.nnz_in"] = c["elim.nnz_in"]
        out["elim.rank_ratio"] = _ratio(c["elim.rank_out"], c["elim.rows_in"])
        out["elim.coeff_bits_max"] = c["elim.coeff_bits_max"]
        out["resolve.step_gens_sum"] = c["resolve.step_gens_sum"]
        out["resolve.window_calls"] = c["resolve.window_calls"]
        out["resolve.window_builds"] = c["resolve.window_builds"]
        hits = c["resolve.window_calls"] - c["resolve.window_builds"]
        out["resolve.window_hit_ratio"] = _ratio(hits, c["resolve.window_calls"])
        out["modpres.pres_gens_sum"] = c["modpres.pres_gens_sum"]
        out["modpres.pres_rels_sum"] = c["modpres.pres_rels_sum"]
        return out


def _ratio(a, b):
    return a / b if b else 0.0
