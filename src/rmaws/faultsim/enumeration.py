"""Exhaustive fault-injection enumeration.

A template scenario plus a list of fault *sites* expands into every
combination of enabled sites; sites whose timed faults share an instant
additionally expand into every ordering of that instant. Each resulting
scenario is checked against the protocol invariants. This enumeration is
the oracle behind the reliability claims: the report carries any
violating scenario verbatim so it can be replayed.

Most enabled sites change nothing in most scenarios, because their
trigger is never reached, so far fewer behaviours than scenarios exist
(65 for the 560 scenarios of ``perfbench/faults_template.json``). One
``DecisionTree`` of the sites' faults is kept for the call: a scenario
that agrees with an earlier run at every decision point that run reached
(a drop check, or a step of a timed fault's instant; see ``tree``) gets
that run's trace under its own name, and only the others run the
simulator. The tree validates the template and the sites' faults once.
Every scenario passes through ``run`` and ``check_invariants`` once,
and is reported as before; the report also counts the simulator runs.
The tree holds one trace per behaviour, about 10 KB each for that
template, until the call returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .invariants import Violation, check_invariants
from .scenario import DROP_FAULT_KINDS, FaultSpec, ScenarioInvalid, ScenarioSpec
from .sim import run
from .tree import DecisionTree

MAX_SITES = 12

# A site is one togglable failure: either a single fault or a group that
# only makes sense together (an offline window is offline + online).
Site = list[FaultSpec]


def normalize_sites(raw_sites) -> list[Site]:
    sites: list[Site] = []
    for site in raw_sites:
        if isinstance(site, FaultSpec):
            sites.append([site])
        elif isinstance(site, (list, tuple)):
            group = list(site)
            if not group or not all(isinstance(f, FaultSpec) for f in group):
                raise ScenarioInvalid("a fault site group must hold FaultSpec entries")
            sites.append(group)
        else:
            raise ScenarioInvalid(f"bad fault site: {site!r}")
    return sites


def site_label(site: Site) -> str:
    parts = []
    for fault in site:
        target = f"s{fault.send}" if fault.send is not None else fault.client
        trial = f".t{fault.trial}" if fault.trial is not None else ""
        parts.append(f"{fault.kind}[{target}{trial}@{fault.t}]")
    return "+".join(parts)


@dataclass
class ScenarioFinding:
    sites: list[str]
    ordering: int
    violations: list[Violation]
    scenario: dict  # verbatim, replayable document

    def to_dict(self) -> dict:
        return {
            "sites": self.sites,
            "ordering": self.ordering,
            "violations": [v.to_dict() for v in self.violations],
            "scenario": self.scenario,
        }


@dataclass
class InvariantReport:
    template: str
    total_scenarios: int = 0
    # One per behaviour, and a plain one for each scenario whose run diverged.
    simulator_runs: int = 0
    site_labels: list[str] = field(default_factory=list)
    findings: list[ScenarioFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def first_violation(self) -> ScenarioFinding | None:
        return self.findings[0] if self.findings else None

    def to_dict(self) -> dict:
        return {
            "template": self.template,
            "total_scenarios": self.total_scenarios,
            "simulator_runs": self.simulator_runs,
            "sites": self.site_labels,
            "violation_count": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
        }


def expected_scenario_count(sites: list[Site]) -> int:
    """Arithmetic cross-check: sum over subsets of same-instant orderings."""
    total = 0
    for mask in range(1 << len(sites)):
        enabled = [sites[i] for i in range(len(sites)) if mask >> i & 1]
        timed = [f for site in enabled for f in site if f.kind not in DROP_FAULT_KINDS]
        groups: dict[int, int] = {}
        for fault in timed:
            groups[fault.t] = groups.get(fault.t, 0) + 1
        orderings = 1
        for size in groups.values():
            orderings *= math.factorial(size)
        total += orderings
    return total


def _orderings(timed: list[FaultSpec]):
    """Every per-instant permutation, times sorted ascending."""
    groups: dict[int, list[FaultSpec]] = {}
    for fault in timed:
        groups.setdefault(fault.t, []).append(fault)
    instants = sorted(groups)
    for combo in itertools.product(*(itertools.permutations(groups[t]) for t in instants)):
        ordered: list[FaultSpec] = []
        for chunk in combo:
            ordered.extend(chunk)
        yield ordered


def enumerate_and_check(
    template: ScenarioSpec,
    fault_sites,
    *,
    break_dedup: bool = False,
) -> InvariantReport:
    sites = normalize_sites(fault_sites)
    if len(sites) > MAX_SITES:
        raise ScenarioInvalid(f"at most {MAX_SITES} fault sites are enumerable")
    report = InvariantReport(template=template.name,
                             site_labels=[site_label(s) for s in sites])
    tree = DecisionTree(template, [f for site in sites for f in site], break_dedup=break_dedup)
    for mask in range(1 << len(sites)):
        enabled = [sites[i] for i in range(len(sites)) if mask >> i & 1]
        enabled_labels = [report.site_labels[i] for i in range(len(sites)) if mask >> i & 1]
        drops = [f for site in enabled for f in site if f.kind in DROP_FAULT_KINDS]
        timed = [f for site in enabled for f in site if f.kind not in DROP_FAULT_KINDS]
        for ordering_index, ordered in enumerate(_orderings(timed)):
            # Shares the template's values as ``dataclasses.replace``
            # would, without its per-call look-up of the fields.
            scenario = ScenarioSpec(
                name=f"{template.name}#{mask:0{max(1, len(sites))}b}.{ordering_index}",
                end_time_ms=template.end_time_ms, auth_token=template.auth_token,
                latency=template.latency, services=template.services, sends=template.sends,
                faults=drops + ordered)
            trace = run(scenario, break_dedup=break_dedup, tree=tree)
            report.total_scenarios += 1
            violations = check_invariants(trace)
            if violations:
                report.findings.append(ScenarioFinding(
                    sites=enabled_labels,
                    ordering=ordering_index,
                    violations=violations,
                    scenario=scenario.to_dict(),
                ))
    report.simulator_runs = tree.runs
    return report
