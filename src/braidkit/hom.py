"""Homomorphism verification against group models.

A candidate homomorphism is a generator assignment into a GroupModel; it is
well defined exactly when every relator evaluates to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .models import GroupModel, finite_closure
from .presentations import Presentation
from .words import Word


@dataclass(frozen=True)
class RelatorCheck:
    index: int
    relator: Word
    image: str
    trivial: bool
    replay: str


@dataclass(frozen=True)
class HomReport:
    checks: tuple[RelatorCheck, ...]

    @property
    def all_trivial(self) -> bool:
        return all(c.trivial for c in self.checks)


def check_hom(p: Presentation, model: GroupModel, assignment: dict,
              relator: Optional[int] = None) -> HomReport:
    """Evaluate every relator, or only the one with 0-based index `relator`."""
    missing = [g for g in p.generators if g not in assignment]
    if missing:
        raise ValueError("generator %s has no assigned image" % missing[0])
    indices = range(len(p.relators))
    if relator is not None:
        if relator not in indices:
            raise ValueError("relator index %d is out of range; %s has %d relators"
                             % (relator, p.name, len(p.relators)))
        indices = (relator,)
    checks = []
    for i in indices:
        r = p.relators[i]
        image = model.eval_word(assignment, r)
        checks.append(RelatorCheck(
            i, r, model.text(image), image == model.identity(),
            "braidkit hom-check --relator %d ..." % i))
    return HomReport(tuple(checks))


def image_order(model: GroupModel, values) -> int:
    """Order of the subgroup generated by the given element values, by
    `finite_closure`, which raises ValueError past its budget."""
    return len(finite_closure(model, list(values)))
