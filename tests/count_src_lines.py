"""Print the counted lines of each src/azunorm/*.py and their total.

A counted line is a line that is not blank and whose first non-blank
character is not '#'.  Docstring lines, code lines and lines that end in
a comment all count; blank lines and whole-line comments do not.  This is
the line count that ROADMAP.md tracks.

Run from anywhere:  python tests/count_src_lines.py
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "azunorm"


def counted_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = counted_lines(path)
        total += n
        print(f"{n:6,}  {path.name}")
    print(f"{total:6,}  total")


if __name__ == "__main__":
    main()
