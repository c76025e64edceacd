"""kvm's nested SVM model keeps its coverage line ids.

Line ids are ``(file, lineno)`` pairs, so every campaign fingerprint
and every synced corpus record moves if a statement of
``repro/hypervisors/kvm/nested_svm.py`` moves. Changes to the model's
hot path must leave its instrumented lines where they are; the model
reads its exit codes through a plain-attribute namespace
(``SvmExitCodes``) that must hold the very ``SvmExitCode`` members.
"""

from __future__ import annotations

import ast
import hashlib

from repro.coverage import kcov
from repro.hypervisors.kvm import nested_svm
from repro.svm import exit_codes

#: Instrumented line numbers of nested_svm.py: how many, and the SHA-256
#: of their sorted, comma-joined decimal forms.
INSTRUMENTED_LINES = 282
INSTRUMENTED_DIGEST = (
    "203e34fb618a41caa7d491f6dd9815855289cf6ebbbc93ea0c16c9aab34877f5")
#: Lines in the file: the size of its fixed id range.
FILE_LINES = 548


def _source() -> str:
    with open(nested_svm.__file__, encoding="utf-8") as f:
        return f.read()


def test_instrumented_lines_are_pinned():
    lines = sorted(n for _, n in kcov.executable_lines(nested_svm))
    digest = hashlib.sha256(",".join(map(str, lines)).encode()).hexdigest()
    assert (len(lines), digest) == (INSTRUMENTED_LINES, INSTRUMENTED_DIGEST)


def test_line_count_is_pinned():
    assert _source().count("\n") == FILE_LINES


def test_exit_code_names_resolve_to_the_enum_members():
    used = {node.attr for node in ast.walk(ast.parse(_source()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "SvmExitCode"}
    assert len(used) > 20
    for name in used:
        assert getattr(nested_svm.SvmExitCode, name) is \
            exit_codes.SvmExitCode[name]


def test_namespace_holds_every_member():
    for name, member in exit_codes.SvmExitCode.__members__.items():
        assert getattr(exit_codes.SvmExitCodes, name) is member
