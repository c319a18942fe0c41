"""Outside-in layer tracing of the ranlat modules.

The tracer wraps public functions and methods of the package from outside,
without editing it.  A function is patched under every name that any
ranlat module binds it to (for example `rader_cbc_kernel` lives in
`fftconv` but is also imported into `construct`, `cbc` and `cli`), so a
call is seen whichever module makes it.  Methods are patched on their
class.

Each call of a traced site is a span.  Open spans form a stack, so a
span's parent is the span below it, and its self time is its duration
minus the time covered by its child spans.  Every site aggregates calls,
time and self time; no span records are kept.  Sites marked hot (hit far
more than 10^5 times per run, such as the RNG) skip the stack and keep
only a call count and aggregate time; their time is still charged to the
enclosing span, so self times stay exact.

Work counts (`points`, `rows`, `pair_bytes`) are computed from argument
shapes with the package's own sizing functions, looked up at call time.

A site that a later version of the package removes or renames is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


def _batch(*arrays) -> int:
    """Product of the broadcast leading (batch) axes of array-likes."""
    import numpy as np

    shape = np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays))
    return math.prod(shape)


def _sigma_points(args, kwargs, result) -> float:
    import numpy as np

    return float(np.size(args[0] if args else kwargs["x"]))


def _rader_rows(args, kwargs, result) -> float:
    values = args[2] if len(args) > 2 else kwargs["values"]
    weights = args[3] if len(args) > 3 else kwargs["weights"]
    return float(_batch(values, weights))


def _conv_points(args, kwargs, result) -> float:
    import numpy as np

    fftconv = sys.modules["ranlat.fftconv"]
    a, b = args[0], args[1]
    length = np.shape(a)[-1]
    padded = 1 if length == 1 else fftconv.ConvolutionPlan.for_length(length).padded_length
    return float(_batch(a, b) * padded)


def _wce_points(args, kwargs, result) -> float:
    return float(args[0] if args else kwargs["n"])


def _pair_bytes(args, kwargs, result) -> float:
    """Pair tables plus pair sigma grids over the pool, as the package estimates them."""
    return float(sys.modules["ranlat.construct"].estimate_cached_bytes(result.pool))


@dataclass(frozen=True)
class Site:
    """One traced function or method: span name, module, attribute path."""

    name: str
    module: str
    path: str
    hot: bool = False
    size: Optional[Callable] = None  # (args, kwargs, result) -> amount of work


SITES = (
    Site("primes.pool", "primes", "build_prime_pool"),
    Site("primes.root", "primes", "primitive_root"),
    Site("primes.is_prime", "primes", "is_prime"),
    Site("kernels.sigma", "kernels", "sigma_alpha", size=_sigma_points),
    Site("fftconv.rader", "fftconv", "rader_cbc_kernel", size=_rader_rows),
    Site("fftconv.check_root", "fftconv", "check_primitive_root"),
    Site("fftconv.power_perm", "fftconv", "power_permutation"),
    Site("fftconv.conv", "fftconv", "cyclic_convolve", size=_conv_points),
    Site("construct.build", "construct", "construct_fixed_vector", size=_pair_bytes),
    Site("construct.init", "construct", "ConstructionState.__post_init__"),
    Site("construct.choose", "construct", "ConstructionState.choose"),
    Site("construct.theta", "construct", "ConstructionState.theta_all"),
    Site("construct.t_hat", "construct", "ConstructionState.t_hat_all"),
    Site("construct.select", "construct", "select_candidate"),
    Site("construct.finish_dim", "construct", "ConstructionState.finish_dimension"),
    Site("construct.pair_table", "construct", "pair_table"),
    Site("construct.pair_grid", "construct", "pair_sigma_grid"),
    Site("errors.eran", "errors", "randomized_error_sq_fixed"),
    Site("errors.wce", "errors", "worst_case_error_sq", size=_wce_points),
    Site("errors.crt", "errors", "crt_combined_residues"),
    Site("errors.bound", "errors", "theorem_bound_min"),
    Site("errors.good_set", "errors", "good_set_threshold"),
    Site("cbc.construct", "cbc", "cbc_construct"),
    Site("cbc.state", "cbc", "CbcState.__post_init__"),
    Site("cbc.extend", "cbc", "CbcState.extend"),
    Site("cbc.theta", "cbc", "theta_all"),
    Site("runtime.rpfv", "runtime", "run_rpfv"),
    Site("runtime.rpcbc", "runtime", "run_rp_cbc"),
    Site("runtime.rprv", "runtime", "run_rp_rv"),
    Site("runtime.lattice_rule", "runtime", "lattice_rule"),
    Site("runtime.rng", "runtime", "SplitMix64.next_below", hot=True),
    Site("runtime.rng_seed", "runtime", "stream_seed", hot=True),
    Site("cli.vector_io", "cli", "write_vector_file"),
    Site("cli.vector_io", "cli", "read_vector_file"),
)

LAYERS = ("primes", "kernels", "fftconv", "construct", "errors", "cbc", "runtime", "cli")


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    work: float = 0.0  # amount reported by the site's size function


@dataclass
class Tracer:
    """Span aggregator; `installed()` patches the sites for the duration of a block."""

    stats: dict[str, Stat] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    size_errors: int = 0
    _stack: list[list[float]] = field(default_factory=list)  # [child time] per open span

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- roots ---------------------------------------------------------------

    def run_root(self, fn: Callable):
        """Run fn() as a root span; returns (result, duration)."""
        self._stack.append([0.0])
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
        return result, dur

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        st = self.stat(site.name)
        stack = self._stack
        perf = time.perf_counter

        if site.hot:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    st.calls += 1
                    st.total += dur
                    st.self_time += dur
                    if stack:
                        stack[-1][0] += dur
            return hot

        size = site.size

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                st.calls += 1
                st.total += dur
                st.self_time += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
            if size is not None:
                try:
                    st.work += size(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.size_errors += 1
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def installed(self) -> "_Installed":
        return _Installed(self)


class _Installed:
    """Context manager that patches every site and restores it on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        modules = {}
        for name in {site.module for site in SITES}:
            try:
                modules[name] = importlib.import_module(f"ranlat.{name}")
            except ImportError:
                pass
        package = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "ranlat" or k.startswith("ranlat."))]
        tracer.absent = []
        for site in SITES:
            owner = modules.get(site.module)
            *outer, attr = site.path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                tracer.absent.append(f"{site.module}.{site.path}")
                continue
            wrapper = tracer._wrap(site, orig)
            # A method is patched on its class; a function under every name bound to it.
            targets = [(owner, attr)] if isinstance(owner, type) else [
                (mod, key) for mod in package for key, value in vars(mod).items()
                if value is orig]
            for target, key in targets:
                self.restore.append((target, key, orig))
                setattr(target, key, wrapper)
        return tracer

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self.restore):
            setattr(owner, key, orig)
        self.restore.clear()
