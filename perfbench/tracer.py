"""Per-layer tracing for the infogeo benchmark, installed from outside.

The program has no tracing of its own, so this module replaces the
public functions of each ``infogeo`` module with wrappers that record a
span per call.  A wrapper has to sit where the caller looks the name up
at call time: ``core`` imports ``grad_fd``/``hess_fd``/``maximize_concave``
by name, ``qubit`` imports ``eig_h2``/``func_h2`` by name, ``cli`` imports
``get_model`` by name, and ``qubit.as_descriptor`` captures its closed
forms when the descriptor is built.  So the wrappers are installed into
every module that holds the name, before any model handle is built.

Spans are not kept one by one: each (name, parent) pair keeps a call
count, its total time and its self time (total minus the time of its
child spans).  Work counters (Newton iterations, finite-difference
evaluations, grid points, ...) are gathered at the same boundaries.
"""

from __future__ import annotations

import functools
import time

CORE_FUNCTIONS = (
    "massieu", "theta_to_u", "u_to_theta", "canonical_check", "metric_tensor",
    "bregman_divergence", "divergence_from_data", "divergence_def5",
    "pythagoras_data", "pythagoras_models", "convexity_probe",
)
QUBIT_FUNCTIONS = (
    "massieu_qubit", "theta_to_bloch", "bloch_to_theta", "entropy_bloch",
    "gibbs_state", "quantum_relative_entropy",
)
COHERENT_FUNCTIONS = ("massieu_coherent", "theta_to_u_coherent", "coherent_state")
DISCRETE_FUNCTIONS = ("maxent_fit_report", "log_partition", "boltzmann_gibbs",
                      "bgs_entropy")
NUMERICS_FUNCTIONS = ("grad_fd", "hess_fd", "maximize_concave", "grid_sup",
                      "eig_h2", "func_h2")
VERIFY_SUITES = ("numerics", "qubit", "coherent", "coherent2", "discrete2",
                 "discrete3", "regression", "sphere")
SPHERE_FUNCTIONS = ("sphere_mu", "sphere_entropy", "sphere_questions",
                    "sphere_from_questions", "ray_maximizer")
PAIRWISE_FUNCTIONS = ("regression_questions_pairwise", "regression_entropy_pairwise")

COUNTERS = ("newton_iters", "fd_evals", "maximize_iters", "maximize_converged",
            "grid_points", "grid_evals", "core_errors", "verify_checks",
            "verify_failed")


class Tracer:
    """Span aggregates and work counters for one traced run."""

    def __init__(self):
        self._stack = []          # open spans: [name, child time in ns]
        self.spans = {}           # (name, parent) -> [calls, total ns, self ns]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        """``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` may return replacement arguments,
        ``after(result)`` sees the result and ``on_error(exc, parent)``
        sees an exception leaving the call (which is then re-raised).
        """
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, parent)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if after is not None:
                after(result)
            return result

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Patch every traced function of the ``infogeo`` package.

        Returns the wrapped ``cli.main``, which the caller invokes
        directly.
        """
        from infogeo import (cli, coherent, core, discrete, errors, numerics, qubit,
                             registry, regression, sphere, verify)
        counts = self.counts

        def patch(names, modules, prefix, **hooks):
            for fname in names:
                wrapped = self.wrap(f"{prefix}.{fname}",
                                    getattr(modules[0], fname), **hooks)
                for mod in modules:
                    setattr(mod, fname, wrapped)

        # Suite names in verify_all are the canonical_instances keys; the
        # handle passed to verify_handle only carries the instance name.
        suite_of = {h.name: key for key, h in registry.canonical_instances().items()}

        def count_checks(results):
            counts["verify_checks"] += len(results)
            counts["verify_failed"] += sum(1 for r in results if not r.passed)

        for fname, suite in (("verify_numerics", "numerics"),
                             ("verify_regression", "regression"),
                             ("verify_sphere", "sphere")):
            wrapped = self.wrap(f"verify.{suite}", getattr(verify, fname),
                                after=count_checks)
            setattr(verify, fname, wrapped)
            if hasattr(cli, fname):
                setattr(cli, fname, wrapped)
        handle_suite = verify.verify_handle
        wrapped_by_suite = {
            suite: self.wrap(f"verify.{suite}", handle_suite, after=count_checks)
            for suite in suite_of.values()}

        def verify_handle(handle):
            return wrapped_by_suite.get(suite_of.get(handle.name), handle_suite)(handle)

        verify.verify_handle = verify_handle
        cli.verify_handle = verify_handle

        def core_error(exc, parent):
            if isinstance(exc, errors.InfoGeoError) and not parent.startswith("core."):
                counts["core_errors"] += 1

        patch(CORE_FUNCTIONS, [core], "core", on_error=core_error)

        def count_fd(args, kwargs):
            f = args[0]

            def counted(x):
                counts["fd_evals"] += 1
                return f(x)

            return (counted,) + args[1:], kwargs

        def count_grid(args, kwargs):
            f, domain, per_axis = args
            counts["grid_points"] += per_axis ** domain.dimension

            def counted(x):
                counts["grid_evals"] += 1
                return f(x)

            return (counted, domain, per_axis), kwargs

        def count_maximize(result):
            counts["maximize_iters"] += result.iterations
            counts["maximize_converged"] += bool(result.converged)

        for fname, hooks, holders in (
                ("grad_fd", {"before": count_fd}, [numerics, core]),
                ("hess_fd", {"before": count_fd}, [numerics, core]),
                ("maximize_concave", {"after": count_maximize}, [numerics, core]),
                ("grid_sup", {"before": count_grid}, [numerics]),
                ("eig_h2", {}, [numerics, qubit]),
                ("func_h2", {}, [numerics, qubit])):
            patch([fname], holders, "numerics", **hooks)

        patch(QUBIT_FUNCTIONS, [qubit], "qubit")
        patch(COHERENT_FUNCTIONS, [coherent], "coherent")

        def count_newton(result):
            counts["newton_iters"] += result[1]

        patch(["maxent_fit_report"], [discrete], "discrete", after=count_newton)
        patch(DISCRETE_FUNCTIONS[1:], [discrete], "discrete")
        patch(["regression_questions"], [regression], "regression")
        patch(PAIRWISE_FUNCTIONS, [regression], "regression")
        patch(SPHERE_FUNCTIONS, [sphere], "sphere")

        wrapped_get_model = self.wrap("registry.get_model", registry.get_model)
        registry.get_model = wrapped_get_model
        cli.get_model = wrapped_get_model
        return self.wrap("cli.main", cli.main)

    # ------------------------------------------------------------ report

    def dump(self):
        """Aggregates as JSON-ready rows."""
        return {
            "spans": [{"name": name, "parent": parent, "calls": c,
                       "total_ns": t, "self_ns": s}
                      for (name, parent), (c, t, s) in sorted(self.spans.items())],
            "counts": dict(self.counts),
        }


def _by_name(spans):
    out = {}
    for row in spans:
        rec = out.setdefault(row["name"], {"calls": 0, "total_ns": 0, "self_ns": 0,
                                           "outer_ns": 0})
        rec["calls"] += row["calls"]
        rec["total_ns"] += row["total_ns"]
        rec["self_ns"] += row["self_ns"]
        prefix = row["name"].split(".")[0] + "."
        if not row["parent"].startswith(prefix):
            rec["outer_ns"] += row["total_ns"]
    return out


def layer_metrics(dump):
    """The per-layer metrics, as ``{name: (value, unit)}``, from :meth:`Tracer.dump`."""
    spans = _by_name(dump["spans"])
    counts = dump["counts"]
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "outer_ns": 0}
    out = {}

    def calls(name):
        return spans.get(name, empty)["calls"]

    def seconds(name, key):
        return spans.get(name, empty)[key] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out["cli.main.calls"] = (calls("cli.main"), "count")
    out["cli.main.self_s"] = (seconds("cli.main", "self_ns"), "s")
    out["registry.get_model.calls"] = (calls("registry.get_model"), "count")
    out["registry.get_model.s"] = (seconds("registry.get_model", "total_ns"), "s")
    for f in CORE_FUNCTIONS:
        out[f"core.{f}.calls"] = (calls(f"core.{f}"), "count")
        out[f"core.{f}.self_s"] = (seconds(f"core.{f}", "self_ns"), "s")
    out["core.errors"] = (counts["core_errors"], "count")
    for mod, names in (("qubit", QUBIT_FUNCTIONS), ("coherent", COHERENT_FUNCTIONS)):
        for f in names:
            out[f"{mod}.{f}.calls"] = (calls(f"{mod}.{f}"), "count")
            out[f"{mod}.{f}.s"] = (seconds(f"{mod}.{f}", "total_ns"), "s")
    for f in DISCRETE_FUNCTIONS:
        out[f"discrete.{f}.calls"] = (calls(f"discrete.{f}"), "count")
        out[f"discrete.{f}.s"] = (seconds(f"discrete.{f}", "total_ns"), "s")
    out["discrete.newton_iters"] = (counts["newton_iters"], "count")
    for f in NUMERICS_FUNCTIONS:
        out[f"numerics.{f}.calls"] = (calls(f"numerics.{f}"), "count")
        out[f"numerics.{f}.self_s"] = (seconds(f"numerics.{f}", "self_ns"), "s")
    out["numerics.fd_evals"] = (counts["fd_evals"], "count")
    out["numerics.maximize_concave.iters"] = (counts["maximize_iters"], "count")
    out["numerics.maximize_concave.converged_ratio"] = (
        ratio(counts["maximize_converged"], calls("numerics.maximize_concave")), "ratio")
    out["numerics.grid_sup.points"] = (counts["grid_points"], "count")
    out["numerics.grid_sup.member_ratio"] = (
        ratio(counts["grid_evals"], counts["grid_points"]), "ratio")
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.s"] = (seconds(f"verify.{suite}", "total_ns"), "s")
    out["verify.checks"] = (counts["verify_checks"], "count")
    out["verify.failed"] = (counts["verify_failed"], "count")
    out["regression.questions.calls"] = (calls("regression.regression_questions"), "count")
    out["regression.questions.s"] = (seconds("regression.regression_questions", "total_ns"), "s")
    out["regression.pairwise.s"] = (
        sum(seconds(f"regression.{f}", "total_ns") for f in PAIRWISE_FUNCTIONS), "s")
    out["sphere.calls"] = (sum(calls(f"sphere.{f}") for f in SPHERE_FUNCTIONS), "count")
    out["sphere.s"] = (sum(seconds(f"sphere.{f}", "outer_ns") for f in SPHERE_FUNCTIONS), "s")
    return out
