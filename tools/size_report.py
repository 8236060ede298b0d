#!/usr/bin/env python3
"""Print the size of every crate under crates/ and vendor/.

For each crate it counts Rust lines in four buckets:

* prod  -- lines of files under src/ before the file's first top-level
           `#[cfg(test)]` (the whole file when it has none),
* test  -- the rest of those files plus every file under tests/,
* other -- every other .rs file (benches/, examples/, build scripts),
* total -- the sum of the three,

and the public items declared under src/: lines that start with
`pub fn|struct|enum|const|type|trait|static|mod` (`pub(crate)` and the
like do not count).

Usage: python3 tools/size_report.py [REPO_ROOT]

Standard library only; prints a table and exits 0.
"""

import os
import re
import sys

PUB_ITEM = re.compile(r"^\s*pub\s+(fn|struct|enum|const|type|trait|static|mod)\b")
TOP_LEVEL_CFG_TEST = "#[cfg(test)]"


def rust_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "target")
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def crate_size(crate_dir):
    size = {"prod": 0, "test": 0, "other": 0, "pub": 0}
    src = os.path.join(crate_dir, "src") + os.sep
    tests = os.path.join(crate_dir, "tests") + os.sep
    for path in rust_files(crate_dir):
        lines = read_lines(path)
        if path.startswith(tests):
            size["test"] += len(lines)
        elif path.startswith(src):
            cut = next(
                (i for i, line in enumerate(lines) if line.rstrip() == TOP_LEVEL_CFG_TEST),
                len(lines),
            )
            size["prod"] += cut
            size["test"] += len(lines) - cut
            size["pub"] += sum(1 for line in lines if PUB_ITEM.match(line))
        else:
            size["other"] += len(lines)
    size["total"] = size["prod"] + size["test"] + size["other"]
    return size


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    root = os.path.abspath(root)
    columns = ["prod", "test", "other", "total", "pub"]
    print(f"{'crate':<24}" + "".join(f"{c:>8}" for c in columns))
    grand = dict.fromkeys(columns, 0)
    for group in ("crates", "vendor"):
        group_dir = os.path.join(root, group)
        if not os.path.isdir(group_dir):
            continue
        subtotal = dict.fromkeys(columns, 0)
        for name in sorted(os.listdir(group_dir)):
            crate_dir = os.path.join(group_dir, name)
            if not os.path.isfile(os.path.join(crate_dir, "Cargo.toml")):
                continue
            size = crate_size(crate_dir)
            print(f"{group + '/' + name:<24}" + "".join(f"{size[c]:>8}" for c in columns))
            for c in columns:
                subtotal[c] += size[c]
                grand[c] += size[c]
        print(f"{group + ' (sum)':<24}" + "".join(f"{subtotal[c]:>8}" for c in columns))
    print(f"{'all':<24}" + "".join(f"{grand[c]:>8}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
