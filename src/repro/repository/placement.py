"""The federation's placement index: O(1) homes at any member count.

The seed federation resolved every staged version's home by scanning
**every member's** ``staged_ids()`` — O(members x batch) per
``commit_group``, the one hot path whose cost still grew with
federation size.  :class:`PlacementIndex` is the coordinator-side
index that removes the scans:

* **DA placement** — which member holds a DA's derivation graph:
  explicit :meth:`assign` pins, round-robin for the rest;
* **staged-home map** — staged DOV id -> member, maintained at
  ``stage_checkin`` / ``abort_checkin`` / commit time, so group-commit
  home resolution is O(batch) with zero member scans;
* **directory** — durable DOV id -> member, the O(1) read-routing map
  (millions of DOVs stay one dict lookup).

Everything in the index is *volatile* coordinator state: a coordinator
or whole-site loss wipes it, and
:meth:`~repro.repository.federation.FederatedRepository.recover_directory`
rebuilds it from the members' own WAL-recovered stores — the index is
a cache of the federation's durable truth, never the truth itself.
"""

from __future__ import annotations

from typing import Any, Iterator


class PlacementIndex:
    """DA homes, staged-version homes, and the durable DOV directory.

    Pure bookkeeping — the index never touches a member repository;
    the :class:`~repro.repository.federation.FederatedRepository`
    feeds it at stage/abort/commit time and rebuilds it after a
    coordinator loss.
    """

    def __init__(self, members: list[str]) -> None:
        self._members = list(members)
        self._next_member = 0
        #: da id -> member name (assignments + placements)
        self._homes: dict[str, str] = {}
        #: staged (uncommitted) dov id -> member name
        self._staged: dict[str, str] = {}
        #: durable dov id -> member name (the global directory)
        self._directory: dict[str, str] = {}

    # -- DA placement -------------------------------------------------------

    def place(self, da_id: str) -> str:
        """Choose (and remember) the home member of a new DA."""
        home = self._homes.get(da_id)
        if home is not None:
            return home
        home = self._members[self._next_member % len(self._members)]
        self._next_member += 1
        self._homes[da_id] = home
        return home

    def assign(self, da_id: str, member: str) -> None:
        """Pin a DA to an explicit member (overrides round-robin)."""
        self._homes[da_id] = member

    def home_of(self, da_id: str) -> str | None:
        """The placed home of a DA, or None when unplaced."""
        return self._homes.get(da_id)

    def homes(self) -> dict[str, str]:
        """Copy of the DA placement map."""
        return dict(self._homes)

    # -- staged-home map ----------------------------------------------------

    def stage(self, dov_id: str, member: str) -> None:
        """Record where a freshly staged version lives."""
        self._staged[dov_id] = member

    def unstage(self, dov_id: str) -> str | None:
        """Forget a staged version (abort or commit); returns its home."""
        return self._staged.pop(dov_id, None)

    def staged_home(self, dov_id: str) -> str | None:
        """Home member of a staged version — the O(1) resolution the
        seed federation paid a full member scan for."""
        return self._staged.get(dov_id)

    def drop_member_staged(self, member: str) -> int:
        """A member crashed: its staged versions were volatile and died
        with it, so their index entries go too.  Returns #dropped."""
        stale = [dov_id for dov_id, home in self._staged.items()
                 if home == member]
        for dov_id in stale:
            del self._staged[dov_id]
        return len(stale)

    # -- durable directory --------------------------------------------------

    def commit_durable(self, dov_id: str, member: str) -> None:
        """A version became durable at *member*: move it from the
        staged map (wherever the commit came from — normal, redo, or
        recovery) into the directory."""
        self._staged.pop(dov_id, None)
        self._directory[dov_id] = member

    def locate(self, dov_id: str) -> str | None:
        """Member holding a durable version, or None when unknown."""
        return self._directory.get(dov_id)

    def directory_snapshot(self) -> dict[str, str]:
        """Copy of the durable directory (the rebuild-equality oracle)."""
        return dict(self._directory)

    def __contains__(self, dov_id: str) -> bool:
        return dov_id in self._directory

    def __iter__(self) -> Iterator[str]:
        return iter(self._directory)

    # -- failure / rebuild --------------------------------------------------

    def clear(self) -> None:
        """Coordinator loss: the whole index is volatile and vanishes
        (the round-robin cursor survives only through the homes that
        were already placed)."""
        self._homes.clear()
        self._staged.clear()
        self._directory.clear()

    def restore(self, homes: dict[str, str], staged: dict[str, str],
                directory: dict[str, str]) -> None:
        """Install a rebuilt index (directory-rebuild recovery)."""
        self._homes = dict(homes)
        self._staged = dict(staged)
        self._directory = dict(directory)
        # keep round-robin fair after a rebuild: skip past the homes
        # already handed out
        self._next_member = max(self._next_member, len(self._homes))

    # -- stats --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Index sizes for the federation's stats surface."""
        return {
            "placements": len(self._homes),
            "staged_index": len(self._staged),
            "directory_entries": len(self._directory),
        }
