"""Seeded, deterministic fault injection for the infrastructure layers.

The engine already has a ``fault_hook`` for in-pipeline mutation testing
(DESIGN.md §8/§9); this module is its counterpart for everything *around*
the engine — the disk store, the worker processes, and the serve socket
path — where real deployments fail in ways unit tests never exercise:
``EIO`` on a cache read, ``ENOSPC`` mid-write, a worker process dying, a
connection reset halfway through a response.

A :class:`FaultPlan` is a set of rules, each naming an **injection
site** (a dotted string compiled into the production code, e.g.
``store.write``) and a **trigger schedule**:

``always``            fire on every call
``nth=K``             fire on exactly the K-th call (1-based)
``first=K``           fire on the first K calls, then go quiet
``every=K``           fire on every K-th call
``prob=P``            fire with probability P, decided by a PRNG seeded
                      from ``(seed, site, call index)`` — the schedule is
                      a pure function of the plan, not of timing

plus optional options: ``match=SUBSTR`` restricts a rule to calls whose
context string (a path, a key, a request target) contains ``SUBSTR``,
and ``delay=S`` parameterizes sites that stall rather than break.

Call indices are **global across processes** when the plan has a
``state_dir``: each call atomically appends to a per-site counter file
(``flock``-serialized), so "crash the first two worker calls" means two
crashes total across the whole pool — not two per worker — and a
rebuilt pool does not restart the schedule.  Without a ``state_dir``
counting is per-process.

Activation mirrors :mod:`repro.metrics`: production call sites ask
:func:`fire` (one dict lookup when no plan is installed) and a plan is
:func:`install`-ed by tests, by the chaos drill, or from the
``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` / ``REPRO_FAULTS_STATE``
environment variables — which is how a plan installed by the batch
orchestrator reaches its worker processes (:meth:`FaultPlan.to_env`).
Every injected fault is counted in the installed metrics registry
(``repro_fault_injected_total{site=...}``) and in
:attr:`FaultPlan.fired`, so a chaos run can assert its faults actually
happened.

The registered sites (each raises/acts at its call site, this module
only answers "fire or not"):

=======================  =============================================
``store.read``           ``OSError(EIO)`` while reading an entry
``store.write``          ``OSError(ENOSPC)`` while staging an entry
``store.truncate``       truncate the staged tmp file before rename
                         (publishes a torn entry the reader must heal)
``batch.worker.crash``   ``os._exit(3)`` inside a pool worker
``batch.worker.hang``    sleep ``delay`` (default forever-ish) inside
                         a pool worker
``serve.worker.crash``   ``os._exit(3)`` inside a serve pool worker
                         (``--pool process``; context: the endpoint)
``serve.response.reset`` abort the TCP connection mid-response
``serve.response.delay`` sleep ``delay`` seconds before responding
=======================  =============================================
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import metrics as _metrics

__all__ = [
    "FaultError",
    "FaultRule",
    "FaultPlan",
    "KNOWN_SITES",
    "install",
    "uninstall",
    "current",
    "fire",
    "rule_for",
]

#: Every injection site compiled into the production code, for spec
#: validation (a typo in a chaos spec must fail loudly, not no-op).
KNOWN_SITES = (
    "store.read",
    "store.write",
    "store.truncate",
    "batch.worker.crash",
    "batch.worker.hang",
    "serve.worker.crash",
    "serve.response.reset",
    "serve.response.delay",
)

_TRIGGERS = ("always", "nth", "first", "every", "prob")

#: Environment variables carrying a plan across process boundaries.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"
ENV_STATE = "REPRO_FAULTS_STATE"


class FaultError(ValueError):
    """A malformed fault spec (unknown site, trigger, or option)."""


@dataclass(frozen=True)
class FaultRule:
    """One site's schedule: ``site:trigger[=arg][,match=S][,delay=S]``."""

    site: str
    trigger: str = "always"
    arg: float = 0.0
    match: str = ""
    delay: float = 1.0

    def __post_init__(self):
        if self.site not in KNOWN_SITES:
            raise FaultError(
                f"unknown fault site {self.site!r}; "
                f"known: {', '.join(KNOWN_SITES)}"
            )
        if self.trigger not in _TRIGGERS:
            raise FaultError(
                f"unknown trigger {self.trigger!r}; "
                f"known: {', '.join(_TRIGGERS)}"
            )
        if self.trigger in ("nth", "first", "every") and self.arg < 1:
            raise FaultError(f"{self.trigger}= needs a positive integer")
        if self.trigger == "prob" and not 0.0 <= self.arg <= 1.0:
            raise FaultError("prob= needs a probability in [0, 1]")

    def decide(self, index: int, seed: int) -> bool:
        """Whether call number ``index`` (1-based) fires.

        A pure function of ``(rule, index, seed)`` — replaying the same
        call sequence replays the same faults.
        """
        if self.trigger == "always":
            return True
        if self.trigger == "nth":
            return index == int(self.arg)
        if self.trigger == "first":
            return index <= int(self.arg)
        if self.trigger == "every":
            return index % int(self.arg) == 0
        # prob: hash (seed, site, index) into [0, 1).
        digest = hashlib.sha256(
            f"{seed}\0{self.site}\0{index}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < self.arg

    def to_spec(self) -> str:
        parts = [f"{self.site}:{self.trigger}"]
        if self.trigger in ("nth", "first", "every"):
            parts[0] += f"={int(self.arg)}"
        elif self.trigger == "prob":
            parts[0] += f"={self.arg}"
        if self.match:
            parts.append(f"match={self.match}")
        if self.delay != 1.0:
            parts.append(f"delay={self.delay}")
        return ",".join(parts)


def _parse_rule(text: str) -> FaultRule:
    head, _, options = text.strip().partition(",")
    site, _, trigger_part = head.partition(":")
    if not trigger_part:
        raise FaultError(
            f"rule {text!r} needs 'site:trigger' (e.g. 'store.write:nth=3')"
        )
    trigger, _, raw_arg = trigger_part.partition("=")
    arg = 0.0
    if raw_arg:
        try:
            arg = float(raw_arg)
        except ValueError:
            raise FaultError(f"bad trigger argument in {text!r}")
    fields: Dict[str, object] = {}
    for option in filter(None, options.split(",")):
        name, sep, value = option.partition("=")
        if not sep or name not in ("match", "delay"):
            raise FaultError(f"unknown option {option!r} in rule {text!r}")
        if name == "delay":
            try:
                fields["delay"] = float(value)
            except ValueError:
                raise FaultError(f"bad delay in rule {text!r}")
        else:
            fields["match"] = value
    return FaultRule(site=site, trigger=trigger, arg=arg, **fields)


class FaultPlan:
    """A named set of :class:`FaultRule` with deterministic counting.

    ``seed`` feeds the ``prob`` trigger; ``state_dir`` (optional) makes
    call counting global across processes (see module docstring).  One
    plan instance is thread-safe; :attr:`fired` counts injections per
    site for assertions.
    """

    def __init__(
        self,
        rules: Optional[List[FaultRule]] = None,
        seed: int = 0,
        state_dir: Optional[str] = None,
    ):
        self.rules: Tuple[FaultRule, ...] = tuple(rules or ())
        self.seed = int(seed)
        self.state_dir = os.fspath(state_dir) if state_dir else None
        self.fired: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        if self.state_dir:
            os.makedirs(self.state_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: str,
        seed: int = 0,
        state_dir: Optional[str] = None,
    ) -> "FaultPlan":
        """Parse ``'site:trigger[,opt=v];site:trigger…'`` into a plan."""
        rules = [_parse_rule(part) for part in spec.split(";") if part.strip()]
        if not rules:
            raise FaultError("empty fault spec")
        return cls(rules, seed=seed, state_dir=state_dir)

    def to_spec(self) -> str:
        return ";".join(rule.to_spec() for rule in self.rules)

    def to_env(self) -> Dict[str, str]:
        """Environment variables that reinstall this plan in a subprocess.

        Hand these to ``subprocess`` / forward them into worker processes;
        :func:`current` parses them on first use in the child.  Plans
        meant to coordinate across processes must carry a ``state_dir``.
        """
        env = {ENV_SPEC: self.to_spec(), ENV_SEED: str(self.seed)}
        if self.state_dir:
            env[ENV_STATE] = self.state_dir
        return env

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def rule_for(self, site: str) -> Optional[FaultRule]:
        rules = self._by_site.get(site)
        return rules[0] if rules else None

    def fire(self, site: str, context: str = "") -> bool:
        """Count one call at ``site`` and decide whether a fault fires.

        ``context`` is matched against each rule's ``match`` substring
        (a path, a cache key, a request target).  Calls that match no
        rule cost one dict lookup and do not advance any counter, so an
        installed plan only perturbs the sites it names.
        """
        rules = self._by_site.get(site)
        if not rules:
            return False
        matching = [r for r in rules if not r.match or r.match in context]
        if not matching:
            return False
        index = self._next_index(site)
        if not any(rule.decide(index, self.seed) for rule in matching):
            return False
        with self._lock:
            self.fired[site] = self.fired.get(site, 0) + 1
        registry = _metrics.current()
        if registry is not None:
            registry.counter(
                "repro_fault_injected_total",
                "Faults injected by the installed FaultPlan, by site",
                labelnames=("site",),
            ).inc(site=site)
        return True

    def _next_index(self, site: str) -> int:
        """The 1-based call index at ``site`` (global with a state_dir)."""
        if self.state_dir is None:
            with self._lock:
                self._calls[site] = self._calls.get(site, 0) + 1
                return self._calls[site]
        path = os.path.join(
            self.state_dir, site.replace(".", "_") + ".calls"
        )
        import fcntl

        with open(path, "a+", encoding="utf-8") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.seek(0, os.SEEK_END)
                index = handle.tell() + 1
                handle.write("x")
                handle.flush()
                os.fsync(handle.fileno())
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return index

    def as_dict(self) -> Dict:
        """Machine-readable summary (for degraded-run reports)."""
        return {
            "spec": self.to_spec(),
            "seed": self.seed,
            "state_dir": self.state_dir,
            "fired": dict(sorted(self.fired.items())),
        }


# ----------------------------------------------------------------------
# global installation (mirrors repro.metrics)
# ----------------------------------------------------------------------

_install_lock = threading.Lock()
_installed: Optional[FaultPlan] = None
_env_checked = False


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide fault plan; returns it."""
    global _installed, _env_checked
    with _install_lock:
        _installed = plan
        _env_checked = True
        return plan


def uninstall() -> None:
    """Remove any installed plan (and forget the env-var lookup)."""
    global _installed, _env_checked
    with _install_lock:
        _installed = None
        _env_checked = False


def current() -> Optional[FaultPlan]:
    """The installed plan, or one parsed from ``REPRO_FAULTS``, or None.

    The environment is consulted once per process (negative result
    cached); :func:`uninstall` resets that, which tests rely on.
    """
    global _installed, _env_checked
    plan = _installed
    if plan is not None or _env_checked:
        return plan
    with _install_lock:
        if _installed is None and not _env_checked:
            spec = os.environ.get(ENV_SPEC)
            if spec:
                _installed = FaultPlan.from_spec(
                    spec,
                    seed=int(os.environ.get(ENV_SEED, "0")),
                    state_dir=os.environ.get(ENV_STATE) or None,
                )
            _env_checked = True
        return _installed


def fire(site: str, context: str = "") -> bool:
    """Module-level shorthand: fire ``site`` on the current plan, if any."""
    plan = current()
    return plan.fire(site, context) if plan is not None else False


def rule_for(site: str) -> Optional[FaultRule]:
    """The current plan's first rule for ``site`` (for delay params)."""
    plan = current()
    return plan.rule_for(site) if plan is not None else None
