"""Each input rule is raised from one place: no exception message in the
package's source appears in two raise statements, apart from the repeats
named below."""

import ast
from collections import Counter
from pathlib import Path

import rainbowdisc

# message -> number of raise statements that may carry it
DELIBERATE_REPEATS = {
    # split_along_rainbow_cut and extract_assignment_from_cut each validate
    # their own input
    "cut is not rainbow": 2,
    # parse_graph: two syntax cases of one rule (wrong token count, and a
    # token that is not an integer)
    "line {}: malformed edge line": 2,
}


def message_text(node: ast.expr) -> str | None:
    """The literal text of a string or f-string message, with {} for each
    interpolated value; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def raised_messages() -> Counter:
    found: Counter = Counter()
    for path in sorted(Path(rainbowdisc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                text = message_text(node.exc.args[0])
                if text is not None:
                    found[text] += 1
    return found


def test_each_message_is_raised_from_one_place():
    found = raised_messages()
    assert len(found) > 50
    repeated = {text: count for text, count in found.items()
                if count > DELIBERATE_REPEATS.get(text, 1)}
    assert repeated == {}


def test_deliberate_repeats_are_still_there():
    found = raised_messages()
    for text, count in DELIBERATE_REPEATS.items():
        assert found[text] == count, text
