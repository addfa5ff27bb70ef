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
each run ended. It codes each of its faults once: a drop fault is a bit,
so a scenario's drops are one mask, and a timed fault is its index at
its instant. ``DecisionTree.answer`` codes a scenario's faults in one
pass and walks the tree once. A drop node holds the bits that answer it
yes (its attempt's trial, and every trial), so the walk takes it with
one ``&``; a step's node is taken inline, by ``Path.pick``'s rule. A
scenario that agrees with an earlier run at every decision that run
reached gets that run's trace, under the scenario's own name. Any other
gets the ``Path`` that its run records through, which adds the run's
decisions and its trace to the tree. An enumeration therefore simulates
each behaviour once, the idea of stateless search (Godefroid, "Model
Checking for Programming Languages using VeriSoft", POPL 1997).

Traces of one behaviour share their events and summary values, and a
run keeps the events that it emitted before it left an earlier run's
path as that run's: every trace a tree gives is read-only. They share
its ``Trace.verdict`` too, which ``sim.run`` gives the trace it keeps,
so the behaviour's invariants are checked once. The tree holds one
trace per behaviour, about 10 KB each for
``perfbench/faults_template.json``, until it is dropped. A run that
diverges (hits ``sim.MAX_STEPS``) leaves no trace in the tree.
"""

from __future__ import annotations

from .scenario import DROP_FAULT_KINDS, ScenarioInvalid, ScenarioSpec
from .trace import Trace


class Node:
    """A place in a run: the decision taken there and the node each answer
    leads to; or, where the run ended, its trace. A drop check's node holds
    ``bits``, those of the tree's drop faults that answer it yes; a step's
    node holds ``step``, its instant and which of the instant's faults
    would act. A node with neither children nor a trace was reached by a
    run that diverged there. ``events`` are those of the first run that
    took the decision: every run here emitted the same ones before it.
    ``bits``, ``step``, ``events`` and ``children`` are set together."""

    __slots__ = ("bits", "step", "children", "trace", "events")

    def __init__(self):
        self.children: dict | None = None
        self.trace: Trace | None = None


class DecisionTree:
    """The decisions that the runs of one template read over a fixed set
    of faults, and the trace each run gave.

    It answers only scenarios of its ``template`` whose faults all come
    from ``faults``, simulated with its ``break_dedup``. ``instants`` maps
    each instant of its timed faults, in ascending time, to the distinct
    faults at it. ``runs`` counts the simulator runs made for it. It
    validates its template and faults once, so a scenario that ``answer``
    accepts, made of them, needs no validation of its own."""

    __slots__ = ("template", "break_dedup", "_index", "instants", "root", "runs")

    def __init__(self, template: ScenarioSpec, faults, *, break_dedup: bool = False):
        template.validate()
        for f in faults:
            template.validate_fault(f)
        self.template = template
        self.break_dedup = break_dedup
        instants: dict = {}
        # A drop's (kind, send, trial) -> a bit of its own; a timed
        # fault's (t, kind, client) -> its index at t.
        self._index: dict = {}
        for f in faults:
            if f.kind in DROP_FAULT_KINDS:
                self._index.setdefault((f.kind, f.send, f.trial), 1 << len(self._index))
            elif (f.t, f.kind, f.client) not in self._index:
                at = instants.setdefault(f.t, [])
                self._index[f.t, f.kind, f.client] = len(at)
                at.append(f)
        self.instants = dict(sorted(instants.items()))
        self.root = Node()
        self.runs = 0

    def answer(self, scenario: ScenarioSpec, break_dedup: bool) -> "Trace | Path":
        """The trace of the earlier run whose decisions ``scenario`` agrees
        with, under its name; else the ``Path`` to simulate it through.
        Raise ``ScenarioInvalid`` unless it is of the template, with faults
        of the tree's in time order."""
        t = self.template
        if break_dedup != self.break_dedup or scenario is not t and not (
                scenario.end_time_ms == t.end_time_ms and scenario.auth_token == t.auth_token
                and (scenario.latency is t.latency or scenario.latency == t.latency)
                and (scenario.services is t.services or scenario.services == t.services)
                and (scenario.sends is t.sends or scenario.sends == t.sends)):
            raise ScenarioInvalid(f"scenario {scenario.name!r} is not of the tree's template")
        index = self._index
        mask = 0
        timed: dict = {}  # instant -> indices of the scenario's faults at it, in order
        last_t = 0
        for f in scenario.faults:
            drop = f.kind in DROP_FAULT_KINDS
            code = index.get((f.kind, f.send, f.trial) if drop else (f.t, f.kind, f.client))
            if code is None:
                t.validate_fault(f)  # names what is wrong with an invalid fault
                raise ScenarioInvalid(f"fault {f} is not one of the tree's")
            if drop:
                mask |= code
            elif f.t < last_t:
                raise ScenarioInvalid("timed faults must be sorted by time")
            else:
                last_t = f.t
                timed.setdefault(f.t, []).append(code)
        node = self.root
        taken: dict = {}
        while node.children is not None:
            if node.bits is not None:
                node = node.children.get((mask & node.bits) != 0)
            else:  # Path.pick's rule
                at, acting = node.step
                mine = timed.get(at, ())
                i = taken.get(at, 0)
                while i < len(mine) and not acting[mine[i]]:
                    i += 1
                taken[at] = i + 1
                node = node.children.get(mine[i] if i < len(mine) else -1)
            if node is None:
                return Path(self, mask, timed)
        if node.trace is None:
            return Path(self, mask, timed)
        return node.trace.renamed(scenario.name)


class Path:
    """One scenario's way through a tree, for a run that records it:
    ``mask`` and ``timed`` are the scenario's faults as ``answer`` coded
    them. A run that ``begin`` starts takes each decision it reaches
    through ``dropped`` and ``pick``, which record it, so the tree gains
    the nodes it lacks; ``events`` is that run's event list, as it grows."""

    __slots__ = ("tree", "mask", "timed", "taken", "events", "node", "branch")

    def __init__(self, tree: DecisionTree, mask: int, timed: dict):
        self.tree = tree
        self.mask = mask
        self.timed = timed

    def begin(self, events: list) -> None:
        """Follow the tree from its root, for a run whose event list is
        ``events``."""
        self.taken: dict = {}  # instant -> how many of its faults are applied or skipped
        self.events = events
        self.node = self.tree.root
        # An earlier run's events, and how many of them this run emitted
        # too before it left that run's path.
        self.branch: tuple[list, int] | None = None

    def dropped(self, kind: str, send_index: int, trial: int) -> bool:
        """Whether the scenario drops this attempt: a drop fault's trial of
        None drops every trial."""
        index = self.tree._index
        bits = index.get((kind, send_index, trial), 0) | index.get((kind, send_index, None), 0)
        return bits != 0 and self._take(bits, None, (self.mask & bits) != 0)

    def pick(self, t, acting: tuple) -> int:
        """The index in ``tree.instants[t]`` of the scenario's next fault
        at ``t`` that would act, where ``acting`` says which of them would
        act now; -1 ends the instant."""
        if True not in acting:
            return -1
        mine = self.timed.get(t, ())
        i = self.taken.get(t, 0)
        while i < len(mine) and not acting[mine[i]]:
            i += 1
        self.taken[t] = i + 1
        return self._take(None, (t, acting), mine[i] if i < len(mine) else -1)

    def _take(self, bits: int | None, step: tuple | None, answer):
        """Record that the decision of ``bits`` or ``step`` answered
        ``answer`` here, and move to that answer's node."""
        node = self.node
        if node.children is None:
            if node.trace is not None:
                raise RuntimeError("a run went on where an earlier one ended")
            node.bits, node.step, node.events, node.children = bits, step, self.events, {}
        elif node.bits != bits or node.step != step:
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
        if self.node.children is not None:
            raise RuntimeError("a run ended where an earlier one went on")
        if not diverged:
            self.node.trace = trace
            if self.branch is not None:
                events, shared = self.branch
                trace.events[:shared] = events[:shared]
