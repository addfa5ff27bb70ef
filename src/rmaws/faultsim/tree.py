"""The decisions a simulator run reads, kept as a tree over many runs.

A run reads its scenario's faults at two kinds of decision point only:

- a drop check (``Path.dropped``): whether an attempt's request or
  response is lost. It is a decision wherever one of the tree's drop
  faults could answer yes.
- a step of an instant of the tree's timed faults (``Path.pick``). The
  simulator applies a scenario's faults at one instant in order, in one
  event. At each step the decision's argument is which of the tree's
  faults at that instant would act now. The scenario's next fault that
  would act is applied; one that would not is skipped, since applying it
  would change nothing. When none is left, the instant ends.

Everything else in a run is set by the scenario's template. So two
scenarios that give the same answers at every decision a run reached
have the same trace. A ``DecisionTree`` holds, for one template and one
set of faults, each decision that its runs reached and the trace where
each run ended. ``sim.run(scenario, tree=tree)`` answers a scenario that
agrees with an earlier run at every decision that run reached with that
run's trace, under the scenario's own name. It simulates any other
scenario, and that run's ``Path`` adds its decisions and its trace to
the tree. An enumeration therefore simulates each behaviour once, the
idea of stateless search (Godefroid, "Model Checking for Programming
Languages using VeriSoft", POPL 1997).

Traces of one behaviour share their events and summary values, and a
run keeps the events that it emitted before it left an earlier run's
path as that run's: every trace a tree gives is read-only. The tree
holds one trace per behaviour, about 10 KB each for
``perfbench/faults_template.json``, until it is dropped. A run that
diverges (hits ``sim.MAX_STEPS``) leaves no trace in the tree.
"""

from __future__ import annotations

from .scenario import DROP_FAULT_KINDS, ScenarioInvalid, ScenarioSpec
from .trace import Trace


class Node:
    """A place in a run: the decision taken there, as the ``Choices``
    method that answers it and its arguments, and the node each answer
    leads to; or, where the run ended, its trace. A node with neither was
    reached by a run that diverged there. ``events`` are those of the
    first run that took the decision: every run here emitted the same
    ones before it. ``args``, ``children`` and ``events`` are set with
    ``ask``."""

    __slots__ = ("ask", "args", "children", "trace", "events")

    def __init__(self):
        self.ask = None
        self.trace: Trace | None = None


class Choices:
    """One scenario's answers to a tree's decisions."""

    __slots__ = ("drops", "timed", "taken")

    def __init__(self, drops: set, timed: dict):
        self.drops = drops  # (kind, send, trial) of each drop fault
        self.timed = timed  # instant -> indices of its faults in the tree, in order
        self.taken: dict = {}  # instant -> how many of its faults are applied or skipped

    def dropped(self, kind: str, send_index: int, trial: int) -> bool:
        """A drop fault's trial of None drops every trial."""
        drops = self.drops
        return (kind, send_index, trial) in drops or (kind, send_index, None) in drops

    def pick(self, t, acting: tuple) -> int:
        """The index of the next of the scenario's faults at ``t`` that
        would act, or -1 when none is left."""
        mine = self.timed.get(t, ())
        i = self.taken.get(t, 0)
        while i < len(mine):
            index = mine[i]
            i += 1
            if acting[index]:
                self.taken[t] = i
                return index
        self.taken[t] = i
        return -1


class DecisionTree:
    """The decisions that the runs of one template read over a fixed set
    of faults, and the trace each run gave.

    It answers only scenarios of its ``template`` whose faults all come
    from ``faults``, simulated with its ``break_dedup``. ``instants`` maps
    each instant of its timed faults, in ascending time, to the distinct
    faults at it. ``runs`` counts the simulator runs made for it. It
    validates its template and faults once, so a scenario that ``path``
    accepts, made of them, needs no validation of its own."""

    __slots__ = ("template", "break_dedup", "drops", "_index", "instants", "root", "runs")

    def __init__(self, template: ScenarioSpec, faults, *, break_dedup: bool = False):
        template.validate()
        for f in faults:
            template.validate_fault(f)
        self.template = template
        self.break_dedup = break_dedup
        self.drops = set()
        instants: dict = {}
        self._index: dict = {}  # (t, kind, client) -> index at t; a drop's key -> None
        for f in faults:
            if f.kind in DROP_FAULT_KINDS:
                self.drops.add((f.kind, f.send, f.trial))
                self._index[f.kind, f.send, f.trial] = None
            elif (f.t, f.kind, f.client) not in self._index:
                at = instants.setdefault(f.t, [])
                self._index[f.t, f.kind, f.client] = len(at)
                at.append(f)
        self.instants = dict(sorted(instants.items()))
        self.root = Node()
        self.runs = 0

    def path(self, scenario: ScenarioSpec, break_dedup: bool) -> "Path":
        """Give ``scenario``'s path through the tree; raise ``ScenarioInvalid``
        unless it is of the template, with faults of the tree's in time order."""
        t = self.template
        if break_dedup != self.break_dedup or scenario is not t and not (
                scenario.end_time_ms == t.end_time_ms and scenario.auth_token == t.auth_token
                and (scenario.latency is t.latency or scenario.latency == t.latency)
                and (scenario.services is t.services or scenario.services == t.services)
                and (scenario.sends is t.sends or scenario.sends == t.sends)):
            raise ScenarioInvalid(f"scenario {scenario.name!r} is not of the tree's template")
        drops = set()
        timed: dict = {}
        last_t = 0
        for f in scenario.faults:
            drop = f.kind in DROP_FAULT_KINDS
            key = (f.kind, f.send, f.trial) if drop else (f.t, f.kind, f.client)
            if key not in self._index:
                t.validate_fault(f)  # names what is wrong with an invalid fault
                raise ScenarioInvalid(f"fault {f} is not one of the tree's")
            index = self._index[key]
            if drop:
                drops.add(key)
            elif f.t < last_t:
                raise ScenarioInvalid("timed faults must be sorted by time")
            else:
                last_t = f.t
                timed.setdefault(f.t, []).append(index)
        return Path(self, Choices(drops, timed))


class Path:
    """One scenario's way through a tree. ``lookup`` follows the tree's
    recorded decisions with the scenario's answers. A run that ``begin``
    starts takes each decision it reaches through ``dropped`` and
    ``pick``, which record it, so the tree gains the nodes it lacks;
    ``events`` is that run's event list, as it grows."""

    __slots__ = ("tree", "choices", "events", "node", "branch")

    def __init__(self, tree: DecisionTree, choices: Choices):
        self.tree = tree
        self.choices = choices

    def lookup(self) -> Trace | None:
        """The trace of the earlier run whose decisions the scenario's
        answers agree with, or None when no run has made them yet."""
        node = self.tree.root
        choices = self.choices
        while node.ask is not None:
            node = node.children.get(node.ask(choices, *node.args))
            if node is None:
                return None
        return node.trace

    def begin(self, events: list) -> None:
        """Follow the tree from its root, for a run whose event list is
        ``events``."""
        self.choices.taken.clear()
        self.events = events
        self.node = self.tree.root
        # An earlier run's events, and how many of them this run emitted
        # too before it left that run's path.
        self.branch: tuple[list, int] | None = None

    def dropped(self, kind: str, send_index: int, trial: int) -> bool:
        """Whether the scenario drops this attempt."""
        drops = self.tree.drops
        if not drops or ((kind, send_index, trial) not in drops
                         and (kind, send_index, None) not in drops):
            return False
        return self._take(Choices.dropped, (kind, send_index, trial),
                          self.choices.dropped(kind, send_index, trial))

    def pick(self, t, acting: tuple) -> int:
        """The index in ``tree.instants[t]`` of the fault to apply next,
        where ``acting`` says which of them would act now; -1 ends the
        instant."""
        if True not in acting:
            return -1
        return self._take(Choices.pick, (t, acting), self.choices.pick(t, acting))

    def _take(self, ask, args: tuple, answer):
        """Record that ``ask(choices, *args)`` answered ``answer`` here,
        and move to that answer's node."""
        node = self.node
        if node.ask is None:
            if node.trace is not None:
                raise RuntimeError("a run went on where an earlier one ended")
            node.ask, node.args, node.events, node.children = ask, args, self.events, {}
        elif node.ask is not ask or node.args != args:
            raise RuntimeError("a run reached another decision than an earlier one")
        child = node.children.get(answer)
        if child is None:
            if self.branch is None:
                self.branch = (node.events, len(self.events))
            child = node.children[answer] = Node()
        self.node = child
        return answer

    def end(self, trace: Trace, diverged: bool) -> None:
        """The run ended with ``trace``; a diverged one is not kept."""
        if self.node.ask is not None:
            raise RuntimeError("a run ended where an earlier one went on")
        if not diverged:
            self.node.trace = trace
            if self.branch is not None:
                events, shared = self.branch
                trace.events[:shared] = events[:shared]
