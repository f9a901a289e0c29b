"""Per-layer spans installed from outside refdep.

Each wrapper replaces a public function where its caller looks it up
(a module global such as ``risk.solve_linear_feasibility``, a class
attribute such as ``PsiMap.of``, or the CLI's fitter table), so refdep's
own code is unchanged.  A span's self time is its duration minus the
time covered by the spans it encloses.  ``Tracer.remove`` restores every
original.
"""

import time
from collections import Counter, defaultdict

# FiniteProperty names -> layer; conjunctions pass through without a span.
PROPERTY_LAYERS = {
    "WARP": "choices.warp",
    "Independence": "risk.independence",
    "Stationarity": "timepref.stationarity",
    "Quasi-linearity": "social.quasilinearity",
}


class Tracer:
    def __init__(self):
        self.stack = []                   # time covered by children, per open span
        self.self_s = defaultdict(float)  # layer -> raw self seconds since take()
        self.counts = Counter()           # exact counts since the tracer was made
        self.undo = []

    def span(self, layer, fn, count=None):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                counts[layer + ".calls"] += 1
            if count is not None:
                count(counts, args, result)
            return result
        return wrapper

    def patch(self, owner, name, layer, count=None):
        """Wrap ``owner.name``; static methods stay static."""
        raw = owner.__dict__[name]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = self.span(layer, fn, count)
        setattr(owner, name, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        self.undo.append(lambda: setattr(owner, name, raw))

    def patch_property_check(self, cls):
        original = cls.__dict__["check"]
        spans = {name: self.span(layer, original) for name, layer in PROPERTY_LAYERS.items()}

        def check(prop, dataset, family):
            traced = spans.get(prop.name)
            return (traced or original)(prop, dataset, family)
        cls.check = check
        self.undo.append(lambda: setattr(cls, "check", original))

    def patch_fitter(self, table, model, layer):
        fitter, params_cls = table[model]
        table[model] = (self.span(layer, fitter), params_cls)
        self.undo.append(lambda: table.__setitem__(model, (fitter, params_cls)))

    def take(self):
        """Raw self seconds per layer since the last call."""
        out = dict(self.self_s)
        self.self_s.clear()  # the wrappers hold this dict, so empty it in place
        return out

    def remove(self):
        for undo in reversed(self.undo):
            undo()
        self.undo.clear()


def _count_solve(counts, args, result):
    counts["feasibility.solves"] += 1
    counts["feasibility.feasible"] += bool(result)


def _count_simplex(counts, args, result):
    rows, objective = args
    counts["feasibility.rows"] += len(rows)
    counts["feasibility.vars"] += len(objective)


def install():
    """Wrap every layer boundary of the imported ``refdep`` package."""
    from refdep import choices, cli, engine, feasibility, ordu, risk, serialize, social, timepref

    tracer = Tracer()
    tracer.patch(cli, "main", "cli")

    for name in ("load_dataset", "menus_from_dict"):
        tracer.patch(cli, name, "serialize.load")
    params_classes = (ordu.OrduParams, risk.AreuParams, timepref.PbduParams, social.FspuParams)
    for cls in params_classes:
        tracer.patch(cls, "from_json", "serialize.load")
        tracer.patch(cls, "to_json", "serialize.emit")
    for name in ("to_json", "dataset_to_dict"):
        tracer.patch(cli, name, "serialize.emit")

    tracer.patch(serialize, "validate_dataset", "choices.validate")
    tracer.patch_property_check(choices.FiniteProperty)
    for module in (cli, risk, timepref, social):
        tracer.patch(module, "warp_over", "choices.warp")

    for module in (cli, risk, social, ordu):
        tracer.patch(module, "check_reference_dependence", "engine.refdep")
    tracer.patch(engine.PsiMap, "of", "engine.psi")

    tracer.patch(timepref, "stationarity_over", "timepref.stationarity")
    tracer.patch(timepref, "check_time_reference_dependence", "timepref.refdep")
    tracer.patch(social, "quasilinearity_over", "social.quasilinearity")
    tracer.patch(risk, "independence_over", "risk.independence")

    # the rest of each battery, so that its time is not charged to a caller
    for module, names in (
            (risk, ("check_fosd_dominance", "check_avoidable_risk",
                    "check_risk_reference_dependence")),
            (timepref, ("check_outcome_monotonicity_impatience", "check_present_bias")),
            (social, ("check_social_monotonicity", "check_fairness",
                      "check_equality_reference_dependence"))):
        for name in names:
            tracer.patch(module, name, module.__name__.split(".")[-1] + ".battery")

    for module in (risk, timepref, social):
        tracer.patch(module, "solve_linear_feasibility", "feasibility.build", _count_solve)
    tracer.patch(feasibility, "_simplex_maximize", "feasibility.solve", _count_simplex)

    tracer.patch_fitter(cli._FITTERS, "ordu", "ordu.build")
    tracer.patch_fitter(cli._FITTERS, "areu", "risk.fit")
    tracer.patch_fitter(cli._FITTERS, "pbdu", "timepref.fit")
    tracer.patch_fitter(cli._FITTERS, "fspu", "social.fit")

    for model in ("ordu", "areu", "pbdu", "fspu"):
        tracer.patch(cli, f"simulate_{model}", "model.simulate")
        tracer.patch(cli, f"verify_{model}", "model.verify")
    return tracer
