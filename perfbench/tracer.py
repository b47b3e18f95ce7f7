"""Outside-in tracer for the phaseopt package.

The tracer never edits the program.  It wraps every public function of
every ``phaseopt`` module, and rebinds the wrapper in *every* ``phaseopt``
namespace that holds the original object, so a call made through a
``from .x import f`` binding is recorded as well as a call through the
defining module.  A reference it cannot rebind (a default argument or a
closure cell holding an original) stops the run instead of going
unrecorded.

Each wrapped call is a span.  Only aggregates are kept, in memory: per
function, the number of calls and the summed self time (span time minus
the time of the spans nested in it).  Leaves called 10^4 or more times
per request get a call counter instead of a span, so their cost stays in
the caller's self time and the clock reads do not swamp them.

The codec layer is named ``serialize`` (metric names must start with a
letter): ``to_dict``/``from_dict`` methods of public classes, the
``_serialize`` emitters, and ``json.loads`` (the decoder the CLI uses).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

# Leaves that run >= 1e4 times per request: counted, not timed.
COUNTED = {
    ("specfun", "displacement_element"): "specfun.displacement_element",
    ("groupsim", "FiniteCovariantObservable.norm"): "groupsim.norm",
    ("_serialize", "format_float"): "serialize.format_float",
}
CODEC_METHODS = ("to_dict", "from_dict")
# emitters whose return value is the text written out
ENCODERS = {"dumps", "density_csv", "sweep_csv"}
CLOCK = time.perf_counter


class Tracer:
    """Records spans and counts around calls into phaseopt modules."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.kernel_seen = {}  # s -> largest dim requested so far
        self._stack = []  # time spent in nested spans, per open span
        self._undo = []
        self.wrapped = []

    # --- recording -------------------------------------------------------

    def _span_wrapper(self, fn, name, kind=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "kernel":
                self._note_kernel(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = CLOCK()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = CLOCK() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[name] += dur - frame[0]
                calls[name] += 1
            if kind == "encoder":
                counts["serialize.bytes"] += len(out)
            return out

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_kernel(self, s, dim, *rest, **kw):
        seen = self.kernel_seen.get(s)
        if seen is not None and seen >= dim:
            self.counts["specfun.c_state_matrix.reused"] += 1
        self.kernel_seen[s] = max(dim, seen or 0)

    def note_kernel_calls(self, pairs):
        """Register (s, dim) kernel requests made before the tracer was on."""
        for s, dim in pairs:
            self.kernel_seen[s] = max(dim, self.kernel_seen.get(s, 0))

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function of every phaseopt module; see module doc."""
        import phaseopt

        modules = {"phaseopt": phaseopt}
        for info in pkgutil.iter_modules(phaseopt.__path__):
            modules[info.name] = importlib.import_module(f"phaseopt.{info.name}")
        replace = {}
        for short, mod in modules.items():
            if short == "phaseopt":
                continue
            layer = short.lstrip("_") or short
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if (short, attr) in COUNTED:
                        wrapper = self._count_wrapper(obj, COUNTED[short, attr])
                    elif attr == "c_state_matrix":
                        wrapper = self._span_wrapper(obj, name, "kernel")
                    elif short == "_serialize" and attr in ENCODERS:
                        wrapper = self._span_wrapper(obj, name, "encoder")
                    else:
                        wrapper = self._span_wrapper(obj, name)
                    replace[id(obj)] = (obj, wrapper)
                    self.wrapped.append(name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, layer, attr, obj)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._undo.append((mod, key, value))
        loads = json.loads
        json.loads = self._span_wrapper(loads, "serialize.json.loads")
        self._undo.append((json, "loads", loads))
        originals = {id(orig) for orig, _ in replace.values()}
        wrappers = {id(w) for _, w in replace.values()}
        for mod in modules.values():
            for key, fn in _functions(mod):
                if id(fn) in wrappers:
                    continue
                held = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
                held += [cell.cell_contents for cell in fn.__closure__ or () if _filled(cell)]
                if any(id(value) in originals for value in held):
                    raise RuntimeError(f"{mod.__name__}.{key} captures an unwrapped function")

    def _wrap_methods(self, short, layer, cls_name, cls):
        for meth in CODEC_METHODS + ("norm",):
            raw = cls.__dict__.get(meth)
            if raw is None:
                continue
            key = (short, f"{cls_name}.{meth}")
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if key in COUNTED:
                wrapper = self._count_wrapper(fn, COUNTED[key])
            elif meth in CODEC_METHODS:
                wrapper = self._span_wrapper(fn, f"serialize.{layer}.{cls_name}.{meth}")
            else:
                continue
            setattr(cls, meth, staticmethod(wrapper) if is_static else wrapper)
            self._undo.append((cls, meth, raw))
            self.wrapped.append(f"{layer}.{cls_name}.{meth}")

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # --- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates in a JSON-friendly form (used to ship child traces)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, snap: dict):
        for k, v in snap["self_s"].items():
            self.self_s[k] += v
        for k, v in snap["calls"].items():
            self.calls[k] += v
        for k, v in snap["counts"].items():
            self.counts[k] += v


def _functions(mod):
    for key, value in vars(mod).items():
        if inspect.isfunction(value):
            yield key, value
        elif inspect.isclass(value) and value.__module__ == mod.__name__:
            for name, member in vars(value).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{key}.{name}", member


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True
