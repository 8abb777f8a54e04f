"""Event-condition-action rules for asynchronously occurring events.

"Cooperation relationships among DAs lead to asynchronously occurring
events within a DA (e.g., Propose or Require operations), generally
asking the receiving DA to react or reply ...  Those kinds of
specifications may be best expressed as (event, condition, action)
rules" (Sect.4.2).  The paper's example:

    WHEN Require IF (required DOV available) THEN Propagate

is expressed here as::

    EcaRule("on-require", event="Require",
            condition=lambda env: env["qualifying_dov"] is not None,
            action=lambda env: env["da"].propagate(env["qualifying_dov"]))

The environment dict is assembled by the event's dispatcher (the DM or
the CM adapter) and carries the event payload plus handles to the DA's
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.util.errors import RuleError

RuleEnv = dict[str, Any]


@dataclass
class EcaRule:
    """One event-condition-action rule."""

    name: str
    event: str
    condition: Callable[[RuleEnv], bool]
    action: Callable[[RuleEnv], Any]
    #: lower runs earlier when several rules match one event
    priority: int = 0
    enabled: bool = True

    def matches(self, event: str, env: RuleEnv) -> bool:
        """True when this rule should fire for *event* in *env*."""
        if not self.enabled or self.event != event:
            return False
        try:
            return bool(self.condition(env))
        except Exception as exc:
            raise RuleError(
                f"rule {self.name!r}: condition raised {exc!r}") from exc


@dataclass
class RuleFiring:
    """Record of one rule execution (kept for DM log / experiments)."""

    rule: str
    event: str
    result: Any = None
    error: str = ""


class RuleEngine:
    """Per-DA registry and dispatcher of ECA rules."""

    def __init__(self) -> None:
        self._rules: list[EcaRule] = []
        self.firings: list[RuleFiring] = []

    def register(self, rule: EcaRule) -> EcaRule:
        """Add a rule (names must be unique)."""
        if any(r.name == rule.name for r in self._rules):
            raise RuleError(f"rule {rule.name!r} already registered")
        self._rules.append(rule)
        return rule

    def remove(self, name: str) -> bool:
        """Drop a rule by name; True when it existed."""
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.name != name]
        return len(self._rules) < before

    def rules_for(self, event: str) -> list[EcaRule]:
        """Enabled rules listening on *event*, in priority order."""
        matching = [r for r in self._rules if r.enabled and r.event == event]
        return sorted(matching, key=lambda r: r.priority)

    def dispatch(self, event: str, env: RuleEnv) -> list[RuleFiring]:
        """Fire all matching rules; returns the firing records.

        A failing action does not prevent later rules from firing — the
        failure is recorded on the firing (rules are exception handlers,
        not transactions).
        """
        fired: list[RuleFiring] = []
        for rule in self.rules_for(event):
            if not rule.matches(event, env):
                continue
            firing = RuleFiring(rule.name, event)
            try:
                firing.result = rule.action(env)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                firing.error = repr(exc)
            fired.append(firing)
            self.firings.append(firing)
        return fired

    def __len__(self) -> int:
        return len(self._rules)


def require_propagate_rule(find_qualifying: Callable[[RuleEnv], Any],
                           propagate: Callable[[RuleEnv, Any], Any]
                           ) -> EcaRule:
    """Build the paper's flagship rule.

    ``find_qualifying(env)`` returns a qualifying DOV (or None) for the
    incoming Require; ``propagate(env, dov)`` performs the Propagate.
    """

    def condition(env: RuleEnv) -> bool:
        env["_qualifying"] = find_qualifying(env)
        return env["_qualifying"] is not None

    def action(env: RuleEnv) -> Any:
        return propagate(env, env["_qualifying"])

    return EcaRule("when-require-propagate", "Require", condition, action)
