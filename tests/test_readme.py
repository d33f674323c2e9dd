import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_prints_what_its_comments_say(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = [float(word) for word in capsys.readouterr().out.split()]
    expected = [float(value) for value in re.findall(r"print\(.*# ~ ([0-9.]+)", code)]
    assert len(printed) == len(expected) == 4
    assert printed == pytest.approx(expected, rel=0.03)
