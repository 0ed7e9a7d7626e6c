"""File-to-result benchmark of ``repro`` (see README.md in this directory)."""
