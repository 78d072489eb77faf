"""Rule ``hot-path-slots`` — records built in the event loop stay slotted.

Objects created inside simulator callbacks (per packet, per query, per
retry) dominate the allocation profile of a DDoS run; ``__slots__``
keeps them small and their attribute access fast. Rather than keep a
hand-maintained registry of class names, this checker *discovers* the
set: any class defined in the linted tree that is instantiated inside a
callback-path function (see :mod:`repro.lint.callpaths`) must declare
``__slots__`` — directly, or via ``@dataclass(slots=True)``.

Exempt automatically: exception classes (raised, not accumulated) and
``Enum`` subclasses (module-level singletons). Anything else that is
intentionally dict-backed takes a pragma on its ``class`` line, with a
comment saying why.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.lint.callpaths import callback_names, hot_functions
from repro.lint.driver import Checker, LintContext, SourceFile
from repro.lint.pragmas import allows

EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning", "Enum", "NamedTuple")


def class_declares_slots(node: ast.ClassDef) -> bool:
    """True for a literal ``__slots__`` or ``@dataclass(slots=True)``."""
    for statement in node.body:
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


def _is_exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = None
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        if name is not None and name.endswith(EXEMPT_BASE_SUFFIXES):
            return True
    return False


class HotPathSlotsChecker(Checker):
    rule = "hot-path-slots"
    node_types = (ast.ClassDef,)

    def __init__(self) -> None:
        #: class name -> (file, node, has_slots, exempt)
        self._classes: Dict[str, Tuple[SourceFile, ast.ClassDef, bool, bool]] = {}

    def visit(self, ctx: LintContext, file: SourceFile, node: ast.AST) -> None:
        assert isinstance(node, ast.ClassDef)
        # First definition wins; a name collision would only make the
        # check less precise, never unsound, and the tree has none.
        self._classes.setdefault(
            node.name,
            (file, node, class_declares_slots(node), _is_exempt(node)),
        )

    def finalize(self, ctx: LintContext) -> None:
        names = callback_names(ctx.files)
        reported = set()
        for file in ctx.files:
            for function in hot_functions(file, names):
                for node in ast.walk(function):
                    if not isinstance(node, ast.Call):
                        continue
                    class_name = None
                    if isinstance(node.func, ast.Name):
                        class_name = node.func.id
                    elif isinstance(node.func, ast.Attribute):
                        class_name = node.func.attr
                    if class_name is None or class_name in reported:
                        continue
                    entry = self._classes.get(class_name)
                    if entry is None:
                        continue
                    def_file, def_node, has_slots, exempt = entry
                    if has_slots or exempt:
                        continue
                    # A pragma at the instantiation site silences just
                    # that site; one on the class line covers them all.
                    if allows(file.pragmas, node.lineno, self.rule):
                        ctx.suppressed_count += 1
                        continue
                    reported.add(class_name)
                    function_name = getattr(function, "name", "<lambda>")
                    ctx.report(
                        self.rule,
                        def_file,
                        def_node,
                        f"class `{class_name}` is instantiated on the event-"
                        f"loop callback path ({file.rel}:{node.lineno} in "
                        f"`{function_name}`) but declares no __slots__",
                    )
