"""Line counts of the gridpcr package: code, docstring, comment and blank lines.

Run it on any source tree, so that a change and its parent are counted the
same way:

    python tools/loc.py --src src
    python tools/loc.py --src ../parent/src

Each line of a module falls in exactly one class. A docstring line lies in
the span of a module, class or function docstring (found with ``ast``). A
comment line holds a comment and no code; a code line holds any other
token (found with ``tokenize``), so a line of code with a trailing comment
and every line of a multi-line string that is not a docstring count as
code. The rest are blank lines.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tokenize

COLUMNS = ("code", "docstring", "comment", "blank")
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path) -> dict:
    """Lines of one module by class: code, docstring, comment, blank."""
    with open(path, "rb") as handle:
        source = handle.read()
    docs = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.tokenize(iter(source.splitlines(keepends=True)).__next__):
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comments.update(span)
        elif tok.type not in _LAYOUT:
            code.update(span)
    code -= docs
    comments -= docs | code
    total = len(source.splitlines())
    out = {"code": len(code), "docstring": len(docs), "comment": len(comments)}
    out["blank"] = total - sum(out.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default="src", help="directory that holds the gridpcr package"
    )
    args = parser.parse_args(argv)
    package = os.path.join(args.src, "gridpcr")
    if not os.path.isdir(package):
        parser.error(f"{package} is not a directory")
    names = sorted(n for n in os.listdir(package) if n.endswith(".py"))
    totals = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in (*COLUMNS, "total")))
    for name in names:
        counts = count(os.path.join(package, name))
        for c in COLUMNS:
            totals[c] += counts[c]
        row = [counts[c] for c in COLUMNS]
        print(f"{name:<16}" + "".join(f"{v:>11}" for v in (*row, sum(row))))
    row = [totals[c] for c in COLUMNS]
    print(f"{'total':<16}" + "".join(f"{v:>11}" for v in (*row, sum(row))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
