"""Homomorphism verification against group models.

A candidate homomorphism is a generator assignment into a GroupModel, which
hom-check and verify alike write as `GEN = IMAGE` lines (`parse_assignment`);
it is well defined exactly when every relator evaluates to the identity.
Each check carries its relator's 0-based index, from which
`hom-check --relator INDEX` on the same inputs replays that check alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .models import GroupModel
from .presentations import Presentation
from .words import Gen, Word, parse_gen


@dataclass(frozen=True)
class RelatorCheck:
    index: int
    relator: Word
    image: str
    trivial: bool


@dataclass(frozen=True)
class HomReport:
    checks: tuple[RelatorCheck, ...]

    @property
    def all_trivial(self) -> bool:
        return all(c.trivial for c in self.checks)


def parse_assignment(text: str, model: GroupModel) -> dict[Gen, object]:
    """The images of `GEN = IMAGE` lines, IMAGE read by `model.parse`, blank
    lines and `#` comments skipped.  A line that does not parse, or assigns a
    generator a second time, raises ValueError naming its line."""
    assignment = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        gen_text, eq, image_text = line.partition("=")
        try:
            if not eq:
                raise ValueError("expected GEN = IMAGE, got %r" % line)
            g = parse_gen(gen_text.strip())
            if g in assignment:
                raise ValueError("generator %s is assigned twice" % g)
            assignment[g] = model.parse(image_text.strip())
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    return assignment


def check_hom(p: Presentation, model: GroupModel, assignment: dict,
              relator: Optional[int] = None) -> HomReport:
    """Evaluate every relator, or only the one with 0-based index `relator`,
    under an assignment of images to exactly the generators of `p`."""
    missing = [g for g in p.generators if g not in assignment]
    if missing:
        raise ValueError("generator %s has no assigned image" % missing[0])
    declared = set(p.generators)
    extra = [g for g in assignment if g not in declared]
    if extra:
        raise ValueError("%s is assigned an image but is not a generator of %s"
                         % (extra[0], p.name))
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
        checks.append(RelatorCheck(i, r, model.text(image),
                                   image == model.identity()))
    return HomReport(tuple(checks))
