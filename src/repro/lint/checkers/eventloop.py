"""Rule ``event-loop`` — callbacks respect the kernel's API boundary.

Two invariants keep the simulator's hot loop simple and its guarantees
strong:

* **No reentrancy.** ``Simulator.run()``/``step()`` raise on reentrant
  entry at runtime; this rule catches the mistake statically, flagging
  ``…sim.run(...)`` / ``…sim.step(...)`` calls made *inside* a
  callback-path function. Experiments drive the clock from the outside;
  callbacks schedule, they never pump.
* **Queue internals stay in the kernel.** The ``(time, seq)`` ordering
  key, the lazy-deletion live/dead counts, and the ``Event.cancel``
  span hook are internal contracts of ``repro.simcore``. Code anywhere
  else that touches ``._heap``, reaches into the queue's private state
  (``sim._queue._live``, ``…_queue._seq``, …), imports ``heapq``, or
  assigns ``sim.now`` bypasses the public ``push``/``pop_due``/
  ``depth``/``stats`` API and silently breaks those contracts.
"""

from __future__ import annotations

import ast

from repro.lint.callpaths import callback_names, hot_functions
from repro.lint.driver import Checker, LintContext, SourceFile

KERNEL_PREFIX = "repro/simcore/"

SIM_RECEIVER_NAMES = frozenset({"sim", "_sim", "simulator"})

#: Private attributes of the event queue besides ``_heap``, which is
#: flagged on any receiver (its name is unambiguous). These are flagged
#: only when the receiver itself looks like an event queue, so e.g. a
#: rate limiter's own ``self._live`` would be fine.
QUEUE_INTERNAL_ATTRS = frozenset({"_seq", "_live", "_dead"})

QUEUE_RECEIVER_NAMES = frozenset({"queue", "_queue", "event_queue"})


def _receiver_is_queue(node: ast.expr) -> bool:
    """True for ``queue``, ``sim._queue``, ``self._queue``…"""
    if isinstance(node, ast.Name):
        return node.id in QUEUE_RECEIVER_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in QUEUE_RECEIVER_NAMES
    return False


def _receiver_is_simulator(node: ast.expr) -> bool:
    """True for ``sim``, ``self.sim``, ``self._sim``, ``testbed.sim``…"""
    if isinstance(node, ast.Name):
        return node.id in SIM_RECEIVER_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in SIM_RECEIVER_NAMES
    return False


def _in_kernel(file: SourceFile) -> bool:
    return KERNEL_PREFIX in file.rel or file.rel.startswith("simcore/")


class EventLoopChecker(Checker):
    rule = "event-loop"
    node_types = (ast.Attribute, ast.Import, ast.ImportFrom, ast.Assign)

    # ------------------------------------------------------------------
    # Everywhere (except the kernel itself): heap/clock encapsulation.
    # ------------------------------------------------------------------
    def visit(self, ctx: LintContext, file: SourceFile, node: ast.AST) -> None:
        if _in_kernel(file):
            return
        if isinstance(node, ast.Attribute):
            if node.attr == "_heap":
                ctx.report(
                    self.rule,
                    file,
                    node,
                    "direct access to the event queue's `_heap`; schedule "
                    "and cancel through the `Event` API instead",
                )
            elif node.attr in QUEUE_INTERNAL_ATTRS and _receiver_is_queue(
                node.value
            ):
                ctx.report(
                    self.rule,
                    file,
                    node,
                    f"direct access to event-queue internal "
                    f"`{node.attr}`; use the public `depth()`/`stats()` "
                    f"API",
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "heapq":
                    ctx.report(
                        self.rule,
                        file,
                        node,
                        "`heapq` outside `repro.simcore` — event ordering "
                        "must go through the simulator's queue",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "heapq":
                ctx.report(
                    self.rule,
                    file,
                    node,
                    "`heapq` outside `repro.simcore` — event ordering "
                    "must go through the simulator's queue",
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "now"
                    and _receiver_is_simulator(target.value)
                ):
                    ctx.report(
                        self.rule,
                        file,
                        node,
                        "assignment to `sim.now`; only the kernel advances "
                        "the clock",
                    )

    # ------------------------------------------------------------------
    # Callback paths only: no reentrant pumping.
    # ------------------------------------------------------------------
    def finalize(self, ctx: LintContext) -> None:
        names = callback_names(ctx.files)
        for file in ctx.files:
            if _in_kernel(file):
                continue
            for function in hot_functions(file, names):
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("run", "step")
                        and _receiver_is_simulator(node.func.value)
                    ):
                        function_name = getattr(function, "name", "<lambda>")
                        ctx.report(
                            self.rule,
                            file,
                            node,
                            f"`{node.func.attr}()` called on the simulator "
                            f"inside callback-path function "
                            f"`{function_name}`; run()/step() are not "
                            f"reentrant — schedule events instead",
                        )
