"""Discrete-event task scheduler for modeled pipelines.

A :class:`Task` runs on one named engine for a fixed duration after its
dependencies finish; *exclusive* tasks (the paper's yellow copy-compute
mixed stages) cannot overlap anything on any engine. The scheduler is a
deterministic greedy list scheduler without backfilling — each ready
task is appended at the earliest feasible time — which matches how a
stream/queue-based GPU runtime executes a static DAG.

:class:`Timeline` records the schedule and validates the resource and
dependency constraints (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Task:
    """One pipeline stage instance."""

    name: str
    engine: str
    duration: float
    deps: tuple[str, ...] = ()
    exclusive: bool = False

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name}: duration must be >= 0")


@dataclass(frozen=True)
class ScheduledTask:
    name: str
    engine: str
    start: float
    end: float
    exclusive: bool


@dataclass
class Timeline:
    """A complete schedule."""

    tasks: dict[str, ScheduledTask] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return max((t.end for t in self.tasks.values()), default=0.0)

    def validate(self, tasks: list[Task]) -> None:
        """Raise if the schedule violates any constraint."""
        by_name = {t.name: t for t in tasks}
        if set(by_name) != set(self.tasks):
            raise ValueError("timeline does not cover the task set")
        for t in tasks:
            sched = self.tasks[t.name]
            for dep in t.deps:
                if self.tasks[dep].end > sched.start + 1e-12:
                    raise ValueError(
                        f"dependency violated: {dep} ends after "
                        f"{t.name} starts"
                    )
        entries = sorted(self.tasks.values(), key=lambda s: s.start)
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                if b.start >= a.end - 1e-12:
                    break
                overlap = min(a.end, b.end) - max(a.start, b.start)
                if overlap <= 1e-12:
                    continue
                if a.engine == b.engine:
                    raise ValueError(
                        f"engine overlap on {a.engine}: {a.name} / {b.name}"
                    )
                if a.exclusive or b.exclusive:
                    raise ValueError(
                        f"exclusive-task overlap: {a.name} / {b.name}"
                    )


class EventSimulator:
    """Greedy list scheduler over a fixed engine set."""

    def __init__(self, engines: list[str]) -> None:
        if not engines:
            raise ValueError("at least one engine required")
        self.engines = list(dict.fromkeys(engines))

    def run(self, tasks: list[Task]) -> Timeline:
        """Schedule *tasks*; returns a validated-constructible timeline."""
        by_name = {t.name: t for t in tasks}
        if len(by_name) != len(tasks):
            raise ValueError("duplicate task names")
        for t in tasks:
            if t.engine not in self.engines:
                raise ValueError(
                    f"task {t.name}: unknown engine {t.engine!r}"
                )
            for dep in t.deps:
                if dep not in by_name:
                    raise ValueError(f"task {t.name}: unknown dep {dep!r}")

        engine_free = {e: 0.0 for e in self.engines}
        done: dict[str, float] = {}
        timeline = Timeline()
        remaining = list(tasks)  # insertion order is the tiebreak
        guard = 0
        while remaining:
            guard += 1
            if guard > len(tasks) * (len(tasks) + 1):
                raise ValueError("dependency cycle detected")
            # Ready tasks: all deps scheduled.
            ready = [t for t in remaining if all(d in done for d in t.deps)]
            if not ready:
                raise ValueError("dependency cycle detected")
            # Earliest-feasible-start greedy choice.
            def feasible_start(t: Task) -> float:
                dep_ready = max((done[d] for d in t.deps), default=0.0)
                if t.exclusive:
                    return max(dep_ready, *engine_free.values())
                return max(dep_ready, engine_free[t.engine])

            chosen = min(ready, key=lambda t: (feasible_start(t),
                                               remaining.index(t)))
            start = feasible_start(chosen)
            end = start + chosen.duration
            if chosen.exclusive:
                for e in engine_free:
                    engine_free[e] = end
            else:
                engine_free[chosen.engine] = end
            done[chosen.name] = end
            timeline.tasks[chosen.name] = ScheduledTask(
                chosen.name, chosen.engine, start, end, chosen.exclusive
            )
            remaining.remove(chosen)
        return timeline


def serial_makespan(tasks: list[Task]) -> float:
    """Makespan when nothing overlaps (the non-pipelined baseline)."""
    return sum(t.duration for t in tasks)
