"""CFG001 — every serving config field carries a default.

The serving configs (``*Spec`` sub-configs and ``ServeSimConfig``) are the
repo's persistence surface: they ride in checked-in bench JSON, replay
traces and worker-pool pickles.  A new field without a default breaks
every call site written before it; with one, those call sites keep
working, and (since a plain dataclass default is also a class attribute)
a pickle written before the field existed reads the default on load.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.analysis.rules.base import (
    dataclass_fields,
    field_has_default,
    is_dataclass_def,
)

RULE_ID = "CFG001"


def _covered_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not is_dataclass_def(node):
            continue
        if node.name.endswith("Spec") or node.name == "ServeSimConfig":
            yield node


def check(context: ModuleContext) -> Iterator[Finding]:
    for class_def in _covered_classes(context.tree):
        for name, statement in dataclass_fields(class_def):
            if not field_has_default(statement):
                yield context.finding(
                    statement,
                    RULE_ID,
                    f"{class_def.name}.{name} has no default: call sites and "
                    "stored configs that predate it cannot load",
                )


RULE = Rule(
    id=RULE_ID,
    summary="*Spec/ServeSimConfig fields need defaults",
    check=check,
    scope="src/repro/serving",
)
