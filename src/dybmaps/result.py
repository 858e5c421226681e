"""Verdict object returned by every exhaustive identity check."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive check.

    `witness` is the lexicographically first failing tuple when `holds` is
    False, and None otherwise.  `label` names the sub-condition that failed
    for checks made of several quantified identities.  Truthiness follows
    `holds`, so a non-empty witness tuple never reads as success.
    """

    holds: bool
    witness: tuple[int, ...] | None = None
    label: str | None = None

    def __bool__(self) -> bool:
        return self.holds

    def require(self, error: type[Exception]) -> None:
        """Raise `error(label, witness)` unless the check holds."""
        if not self.holds:
            raise error(self.label, self.witness)


PASS = CheckResult(True)
