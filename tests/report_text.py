"""Report text without its timestamp, the one metadata entry that differs
between runs of the same configuration."""


def strip_timestamp(text: str) -> str:
    """A CSV or JSON report without its timestamp line."""
    body = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# timestamp")
                   and not line.startswith('    "timestamp": '))
    assert body != text, "no timestamp line"
    return body
