"""Outside-in tracing of the program's layers.

``LayerTracer`` replaces selected public functions of ``nonlocal_audit`` by
timing wrappers at every import site: the defining module and every module
of the package that bound the same function object under any name. Calls
between modules and inside one module both go through module globals, so
every call is seen. Nothing under src/ is edited, and ``uninstall`` puts the
original objects back. The wrappers share one call stack, so traced
functions must be called from one thread; the program's only worker threads
(the planar grid scan) call none of them.

A target that a later version of the program deletes or renames is skipped:
it records nothing and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# module -> public functions whose calls are timed and counted
TARGETS = {
    "cli": ("main",),
    "report": ("run_analyze", "render_report"),
    "games": ("load_game",),
    "classical": ("classical_value",),
    "quantum": (
        "optimize_planar",
        "refine_planar",
        "bell_operator",
        "closed_form_optimum",
        "quantum_game_value",
    ),
    "hermitian": ("eig_hermitian",),
    "uncertainty": ("fine_grained_relations",),
    "steering": ("correspondence_verdict", "steer_assemblage"),
}


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0  # outermost calls only, so recursion is not double-counted
    self_s: float = 0.0  # minus the time of traced calls made inside
    strategies: int = 0  # classical_value: deterministic strategy pairs covered
    maximizers: int = 0  # classical_value: maximizers returned


def _classical_extra(stats: LayerStats, args, result) -> None:
    try:
        spec = args[0]
        stats.strategies += spec.n_a ** spec.n_x * spec.n_b ** spec.n_y
        stats.maximizers += len(result[1])
    except (AttributeError, IndexError, TypeError):
        pass


class LayerTracer:
    """Per-layer call counts, inclusive and self time, for one program import."""

    def __init__(self, package_name: str = "nonlocal_audit"):
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [name, time in traced children] per open call
        self._sites: list[tuple[object, str, object, object]] = []
        for module_name, names in TARGETS.items():
            module = sys.modules.get(f"{package_name}.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                key = f"{module_name}.{name}"
                self.stats[key] = LayerStats()
                wrapper = self._wrap(key, original)
                for site in list(sys.modules.values()):
                    site_name = getattr(site, "__name__", "")
                    if site_name != package_name and not site_name.startswith(package_name + "."):
                        continue
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._sites.append((site, attr, original, wrapper))

    def _wrap(self, key: str, original):
        stats = self.stats[key]
        stack = self._stack
        classical = key == "classical.classical_value"

        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if all(f[0] != key for f in stack):  # outermost call of this layer
                    stats.inclusive_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if classical:
                _classical_extra(stats, args, result)
            return result

        return traced

    def install(self) -> None:
        for site, attr, _, wrapper in self._sites:
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original, _ in self._sites:
            setattr(site, attr, original)
