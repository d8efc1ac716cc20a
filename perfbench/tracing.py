"""Spans and counters around calls into braidkit, recorded from the
benchmark's side only.

`Tracer.install` replaces public braidkit functions, at every module
attribute that binds them, with timing wrappers; `uninstall` puts the
originals back.  Nothing under `src/` changes.  Each call records a span
(name, start, end, parent span, request id) and adds to per-function totals:
calls, inclusive time of the outermost call, and self time (duration minus
the time covered by child spans).  Hot word-kernel functions are counted and
timed but get no span record, so that a Tietze run does not store a hundred
thousand spans.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from braidkit import (freesub, garside, hom, intlin, models, presentations,
                      reidschreier, series, verify, words)

MAX_SPANS = 400_000


def _snf_counts(counts, args, _kwargs, _result):
    m = args[0]
    counts["intlin.snf_calls"] += 1
    counts["intlin.matrix_cells"] += m.nrows * m.ncols
    for row in m.rows:
        for x in row:
            if x:
                counts["intlin.nonzero"] += 1
                if x in (1, -1):
                    counts["intlin.units"] += 1


def _gens_relators(p):
    p = getattr(p, "presentation", p)
    if isinstance(p, presentations.IndexedPresentation):
        return (len(p.fixed_generators) + len(p.families),
                len(p.fixed_relators) + len(p.relator_families))
    return len(p.generators), len(p.relators)


def _tietze_counts(counts, args, _kwargs, result):
    g_in, _ = _gens_relators(args[0])
    g_out, r_out = _gens_relators(result)
    counts["reidschreier.gens_eliminated"] += g_in - g_out
    counts["reidschreier.relators_out"] += r_out


def _built_relators(counts, _args, _kwargs, result):
    counts["presentations.relators"] += _gens_relators(result)[1]


def _window(counts, args, kwargs, _result):
    ip = args[0]
    k = kwargs.get("window", args[1] if len(args) > 1 else None)
    counts["series.window_calls"] += 1
    counts["series.window_K_sum"] += ip.window if k is None else k


def _nf_counts(counts, args, _kwargs, result):
    counts["garside.letters_in"] += len(args[0])
    counts["garside.factors_out"] += len(result.factors)


def _hom_counts(counts, args, _kwargs, _result):
    counts["hom.relators_checked"] += len(args[0].relators)


def _fold_counts(counts, _args, _kwargs, result):
    counts["freesub.graph_edges"] += len(result.edges)


def _contains_counts(counts, args, _kwargs, result):
    counts["freesub.contains_letters"] += len(args[1])
    counts["freesub.members"] += bool(result)


def _verify_counts(counts, _args, _kwargs, result):
    counts["verify.checks_selected"] += len(result)


def _built_checks(counts, _args, _kwargs, result):
    counts["verify.checks_built"] += len(result)


BUILDERS = ("artin_braid", "sphere_braid", "punctured_sphere", "affine_A",
            "affine_C", "kent_peifer", "b22_two_generator", "gamma2_b4",
            "gamma2_b5", "gamma2_b6plus", "fullpres", "gamma2_annulus",
            "b3_punctured_gamma2_ab")

# (owner, attribute, span name, hot, counter)
TARGETS = (
    [(presentations, b, "presentations.build", False, _built_relators)
     for b in BUILDERS]
    + [
        (presentations.IndexedPresentation, "instantiate",
         "presentations.instantiate", False, _built_relators),
        (reidschreier, "rs_finite_cyclic", "reidschreier.rewrite", False, None),
        (reidschreier, "rs_z_window", "reidschreier.rewrite", False, None),
        (reidschreier, "tietze_eliminate", "reidschreier.tietze", False,
         _tietze_counts),
        (intlin, "smith_normal_form", "intlin.snf", False, _snf_counts),
        (intlin, "abelian_invariants", "intlin.abelian_invariants", False,
         None),
        (series, "abelianization", "series.abelianization", False, None),
        (series, "gamma2_mod_gamma3", "series.g2g3", False, None),
        (series, "windowed_coinvariants", "series.coinvariants", False,
         _window),
        (garside, "normal_form", "garside.nf", False, _nf_counts),
        (garside, "nf_to_word", "garside.nf_to_word", False, None),
        (models.GarsideBraidGroup, "mul", "models.mul", False, None),
        (hom, "check_hom", "hom.check", False, _hom_counts),
        (freesub, "fold", "freesub.fold", False, _fold_counts),
        (freesub, "contains", "freesub.contains", False, _contains_counts),
        (freesub, "express", "freesub.express", False, None),
        (verify, "all_checks", "verify.all_checks", False, _built_checks),
        (verify, "run_verify", "verify.run", False, _verify_counts),
    ]
    + [(words, f, "words." + f, True, None)
       for f in ("free_reduce", "multiply", "invert", "power", "conjugate",
                 "commutator", "cyclic_reduce", "exponent_vector",
                 "substitute", "parse_word")]
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, request)
        self.stats: dict = {}        # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.request = None
        self.dropped = 0
        self._stack: list = []       # [child time, span index]
        self._depth: Counter = Counter()
        self._sites: list = []       # (owner, attribute, original, wrapper)

    def _wrap(self, fn, name, hot, counter):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, depth = self._stack, self.spans, self._depth

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            index = parent
            if not hot:
                if len(spans) < MAX_SPANS:
                    index = len(spans)
                    spans.append(None)
                else:
                    self.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                stats[0] += 1
                if not depth[name]:
                    stats[1] += duration
                stats[2] += duration - frame[0]
                if index is not None and index != parent:
                    spans[index] = (name, start, end, parent, self.request)
            if counter is not None and not depth[name]:
                counter(self.counts, args, kwargs, result)
            # time spent here and in counting is not the caller's own work
            if stack:
                stack[-1][0] += perf_counter() - start
            return result
        return wrapper

    def install(self):
        """Wrap every target at every braidkit module attribute bound to it."""
        if not self._sites:
            modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == "braidkit"
                                             or n.startswith("braidkit."))]
            for owner, attr, name, hot, counter in TARGETS:
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, hot, counter)
                owners = [(owner, attr)] if isinstance(owner, type) else [
                    (m, key) for m in modules
                    for key, value in vars(m).items() if value is original]
                self._sites += [(o, key, original, wrapper)
                                for o, key in owners]
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)

    def stat(self, name: str, field: int) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[field]


CALLS, INCLUSIVE, SELF = 0, 1, 2


def layer_metrics(tr: Tracer, rounds: int) -> dict:
    """Per-layer metrics as totals per traced round, except ratios and
    means, which are over the whole traced run."""
    c = tr.counts
    per = 1.0 / max(rounds, 1)
    incl = lambda name: tr.stat(name, INCLUSIVE) * per
    words_self = sum(v[SELF] for k, v in tr.stats.items()
                     if k.startswith("words."))
    nonzero = c["intlin.nonzero"]
    return {
        "verify.checks_built": c["verify.checks_built"] * per,
        "verify.checks_selected": c["verify.checks_selected"] * per,
        "presentations.build_s": incl("presentations.build"),
        "presentations.instantiate_s": incl("presentations.instantiate"),
        "presentations.relators": c["presentations.relators"] * per,
        "reidschreier.rewrite_s": incl("reidschreier.rewrite"),
        "reidschreier.tietze_s": incl("reidschreier.tietze"),
        "reidschreier.gens_eliminated": c["reidschreier.gens_eliminated"] * per,
        "reidschreier.relators_out": c["reidschreier.relators_out"] * per,
        "intlin.snf_s": incl("intlin.snf"),
        "intlin.snf_calls": c["intlin.snf_calls"] * per,
        "intlin.matrix_cells": c["intlin.matrix_cells"] * per,
        "intlin.density": _mean(nonzero, c["intlin.matrix_cells"]),
        "intlin.unit_frac": _mean(c["intlin.units"], nonzero),
        "series.coinvariants_s": tr.stat("series.coinvariants", SELF) * per,
        "series.g2g3_s": tr.stat("series.g2g3", SELF) * per,
        "series.window_K": _mean(c["series.window_K_sum"],
                                 c["series.window_calls"]),
        "words.free_reduce_calls": tr.stat("words.free_reduce", CALLS) * per,
        "words.substitute_calls": tr.stat("words.substitute", CALLS) * per,
        "words.self_s": words_self * per,
        "garside.nf_s": incl("garside.nf"),
        "garside.nf_calls": tr.stat("garside.nf", CALLS) * per,
        "garside.letters_in": c["garside.letters_in"] * per,
        "garside.factors_out": c["garside.factors_out"] * per,
        "models.mul_calls": tr.stat("models.mul", CALLS) * per,
        "models.mul_s": incl("models.mul"),
        "hom.relators_checked": c["hom.relators_checked"] * per,
        "hom.check_s": incl("hom.check"),
        "freesub.fold_s": incl("freesub.fold"),
        "freesub.graph_edges": c["freesub.graph_edges"] * per,
        "freesub.contains_s": incl("freesub.contains"),
        "freesub.contains_letters": c["freesub.contains_letters"] * per,
        "freesub.express_s": incl("freesub.express"),
        "freesub.member_frac": _mean(c["freesub.members"],
                                     tr.stat("freesub.contains", CALLS)),
    }


def _mean(total, count) -> float:
    return total / count if count else 0.0
