"""In-memory span tracer interposed on the library's public functions.

``install`` replaces every public module-level function of each layer, in
every ``arithline`` module namespace that holds it, and every public method,
constructor and arithmetic operator of the classes the layer defines (as
``layer.Class.method``), with a wrapper that records a span (name, layer,
start, end, parent, op id); ``uninstall`` puts the originals back.  Nothing
in the library is edited, and an untraced run pays nothing.  Spans stay in
memory; ``write`` saves them when the run ends.

Times are CPU time of the calling thread (refclock.CLOCK), with the clock
paused while the tracer scans a returned series for its coefficient
heights, so that scan is in no span.  Busy time of a layer (or function)
is the union of its spans: the sum over spans with no ancestor of the same
layer (function).  Self time of a span is its duration minus the time its
direct children cover.
"""

import functools
import inspect
import json
import sys

from refclock import CLOCK

LAYERS = (
    "base_space",
    "affine_line",
    "normvalue",
    "series_ring",
    "weierstrass",
    "cousin_cartan",
    "covers_galois",
    "cli",
)

# special methods traced besides the public ones: construction and arithmetic
TRACED_DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
))

# span fields
NAME, LAYER, START, END, PARENT, OP, OUTER_LAYER, OUTER_FUNC = range(8)


def coeff_bits(obj) -> int:
    """Largest numerator/denominator bit height in returned series."""
    coeffs = getattr(obj, "coeffs", None)
    if isinstance(coeffs, dict) and hasattr(obj, "trunc_mod"):
        return max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs.values()),
            default=0,
        )
    entries = getattr(obj, "entries", None)
    if isinstance(entries, tuple):
        return max((coeff_bits(e) for row in entries for e in row), default=0)
    if isinstance(obj, (tuple, list)):
        return max((coeff_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = {}
        self.op_id = None
        self.max_coeff_bits = 0
        self.paused = 0  # ns the clock stood still for the tracer's own scans
        self._patches = []

    # -- interposition -----------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["arithline." + layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "arithline" and not modname.startswith("arithline."):
                continue
            ns = vars(mod)
            for name, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, name, value))
                    ns[name] = hit[1]

    def _install_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            kind = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
            fn = attr.__func__ if kind else attr
            if not inspect.isfunction(fn):
                continue  # properties and plain attributes
            traced = self._wrap(layer, f"{cls.__name__}.{name}", fn)
            self._patches.append((cls, name, attr))
            setattr(cls, name, kind(traced) if kind else traced)

    def uninstall(self):
        for ns, name, value in reversed(self._patches):
            if isinstance(ns, dict):
                ns[name] = value
            else:
                setattr(ns, name, value)
        self._patches = []

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        clock = CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self.depth
            dl = depth.get(layer, 0)
            df = depth.get(qual, 0)
            depth[layer] = dl + 1
            depth[qual] = df + 1
            span = [qual, layer, 0, 0, self.stack[-1] if self.stack else -1, self.op_id, dl == 0, df == 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = clock() - self.paused
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock() - self.paused
                self.stack.pop()
                depth[layer] = dl
                depth[qual] = df
            t = clock()
            bits = coeff_bits(result)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits
            self.paused += clock() - t
            return result

        return traced

    # -- op spans ------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append(["op", "op", CLOCK() - self.paused, 0, -1, op_id, True, True])

    def end_op(self):
        self.spans[self.stack.pop()][END] = CLOCK() - self.paused
        self.op_id = None

    # -- aggregation ---------------------------------------------------------

    def summary(self):
        """{layer or layer.function: [calls, busy_ns, self_ns]} for this pass."""
        spans = self.spans
        covered = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(spans):
            if s[LAYER] == "op":
                continue
            dur = s[END] - s[START]
            own = dur - covered[i]
            for key, outer in ((s[LAYER], s[OUTER_LAYER]), (s[NAME], s[OUTER_FUNC])):
                row = out.setdefault(key, [0, 0, 0])
                row[0] += 1
                row[1] += dur if outer else 0
                row[2] += own
        return out

    def reset(self):
        self.spans = []

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "layer": s[LAYER], "start_ns": s[START],
                    "end_ns": s[END], "parent": s[PARENT], "op": s[OP],
                }) + "\n")
