"""Span tracing from outside the library, by wrapping module attributes.

The library looks its collaborators up as module globals at call time
(``walks.walk_table`` calls ``ball``, ``density_moment`` calls ``density``
and ``adaptive_quadrature``, the CLI calls ``graphs.ball`` ...), so
replacing those attributes for the length of a pass makes every inner call
go through a wrapper as well.  Spans are aggregated in memory per name:
calls, inclusive time, and self time (inclusive minus the time of child
spans).  Work counts are gathered at the same boundaries.  Nothing in the
library changes; :meth:`Tracer.uninstall` restores every attribute.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregated spans and work counts for one traced pass."""

    def __init__(self, lw):
        self._lw = lw
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._last_ball_edges = 0

    # -- span machinery -------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, clock() - t0)
                self.counts[name + ".errors"] += 1
                raise
            self._close(name, frame, clock() - t0)
            if after is not None:
                h0 = clock()
                after(args, kwargs, result)
                if stack:
                    # bookkeeping is tracing overhead, not the caller's self time
                    stack[-1][0] += clock() - h0
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _close(self, name, frame, dt):
        self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt

    def _patch(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._span(name, fn, after))

    # -- work counts ----------------------------------------------------

    def _after_ball(self, args, kwargs, b):
        edges = b.edge_count()
        self.counts["graphs.ball_vertices"] += len(b)
        self.counts["graphs.ball_edges"] += edges
        self._last_ball_edges = edges

    def _after_walk_table(self, args, kwargs, table):
        m_max = table.m_max
        # computed, not observed: every step touches each directed edge once
        self.counts["walks.edge_updates"] += m_max * 2 * self._last_ball_edges
        digits = len(str(max(table.counts)))
        if digits > self.counts["walks.count_digits_max"]:
            self.counts["walks.count_digits_max"] = digits

    def _quadrature(self, fn):
        counts = self.counts

        def counted(f, *args, **kwargs):
            evals = 0

            def integrand(x):
                nonlocal evals
                evals += 1
                return f(x)

            try:
                return fn(integrand, *args, **kwargs)
            finally:
                counts["elliptic.integrand_evals"] += evals

        return counted

    # -- install / uninstall --------------------------------------------

    def install(self):
        lw = self._lw
        g, w, e, s, c = lw.graphs, lw.walks, lw.elliptic, lw.spectral, lw.cli
        self._patch(g, "ball", "graphs.ball", self._after_ball)
        self._patch(w, "ball", "graphs.ball", self._after_ball)
        self._patch(g, "kronecker", "graphs.product")
        self._patch(g, "cartesian", "graphs.product")
        self._patch(g, "connected_components", "graphs.components")
        self._patch(g, "verify_isomorphism", "graphs.iso")
        self._patch(w, "walk_table", "walks.walk_table", self._after_walk_table)
        self._patch(w, "closed_form_walks", "walks.closed_form")
        self._patch(e, "density", "elliptic.density")
        quad = e.adaptive_quadrature
        self._saved.append((e, "adaptive_quadrature", quad))
        e.adaptive_quadrature = self._span("elliptic.quadrature",
                                           self._quadrature(quad))
        self._patch(e, "mellin_density_convolve", "elliptic.mellin")
        self._patch(e, "density_moment", "elliptic.moment")
        self._patch(s, "path_spectrum", "spectral.path_spectrum")
        for cls in (s.ArcSine, s.Semicircle, s.Discrete, s.ClassicalConv,
                    s.MellinConv, s.NamedDensity, s.PathSpectrum):
            self._patch(cls, "moment", "spectral.moment")
        self._patch(c, "main", "cli.main")
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report ---------------------------------------------------------

    def work_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly in every traced pass."""
        out = {f"{name}_calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, named as in BENCHMARK.json.

        ``*_s`` of a layer with wrapped children (``graphs.iso``,
        ``cli.self``, ``walks.iterate``, ``elliptic.quadrature``,
        ``spectral.moment``) is self time; the others are inclusive.
        """
        t, st, calls, counts = self.total, self.self_time, self.calls, self.counts
        vertices = counts["graphs.ball_vertices"]
        return {
            "graphs.ball_s": t["graphs.ball"],
            "graphs.ball_calls": calls["graphs.ball"],
            "graphs.ball_vertices": vertices,
            "graphs.ball_edges": counts["graphs.ball_edges"],
            "graphs.ball_us_per_vertex":
                1e6 * t["graphs.ball"] / vertices if vertices else 0.0,
            "graphs.product_s": t["graphs.product"],
            "graphs.components_s": t["graphs.components"],
            "graphs.iso_s": st["graphs.iso"],
            "cli.main_s": t["cli.main"],
            "cli.self_s": st["cli.main"],
            "cli.commands": calls["cli.main"],
            "walks.iterate_s": st["walks.walk_table"],
            "walks.edge_updates": counts["walks.edge_updates"],
            "walks.count_digits_max": counts["walks.count_digits_max"],
            "walks.closed_form_s": t["walks.closed_form"],
            "walks.closed_form_calls": calls["walks.closed_form"],
            "elliptic.density_s": t["elliptic.density"],
            "elliptic.density_calls": calls["elliptic.density"],
            "elliptic.quadrature_s": st["elliptic.quadrature"],
            "elliptic.quadrature_calls": calls["elliptic.quadrature"],
            "elliptic.integrand_evals": counts["elliptic.integrand_evals"],
            "elliptic.mellin_s": t["elliptic.mellin"],
            "elliptic.mellin_failures": counts["elliptic.mellin.errors"],
            "elliptic.moment_s": t["elliptic.moment"],
            "spectral.path_spectrum_s": t["spectral.path_spectrum"],
            "spectral.moment_s": st["spectral.moment"],
            "spectral.moment_calls": calls["spectral.moment"],
        }
