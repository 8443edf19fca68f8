#!/usr/bin/env python3
"""Diff the DETERMINISTIC fields of a regenerated bench JSON against the
committed baseline and fail on drift.

The figure benches (bench_fig4_weak_scaling --out, bench_fig7_replication
--out) emit one JSON record per measurement. Identity fields plus the
word/size fields (comm_words, replication_words, nnz, n, r, p, c,
predicted_c, observed_c, ...) are fully determined by the committed code
and seeds; only the *_seconds fields are wall-clock noise. So CI can
regenerate the JSONs and require every non-seconds field to match the
committed baseline exactly — a word-count regression (or an accidental
workload change) fails the build, while timing jitter never does.

Usage:
  check_bench_words.py BASELINE.json FRESH.json [NAME]
  check_bench_words.py --schema FILE.json [FILE.json ...]

--schema is a self-check over committed (or freshly generated) bench
JSONs without needing a second file to diff against: every record must
be a flat object whose keys are identifier-shaped, whose key fields are
scalars, whose value fields are numbers (or null — the benches emit
null for non-finite timings), and record keys must be unique. It guards
the interchange format itself, so a bench emitting malformed or
colliding records fails CI even before the word-count diff runs.

Exit status: 0 when all deterministic fields match, 1 on any drift
(missing records, extra records, or changed values) or schema
violation, 2 on bad input.
"""

import json
import re
import sys

# Wall-clock noise, never compared.
NONDETERMINISTIC_SUFFIXES = ("_seconds",)

# Fields identifying a record (the rest are compared as values). A field
# listed here but absent from a record is simply skipped, so the same
# checker covers every bench format: the fig4/fig8 records, the fig7
# replication-mode records ("mode"), the fig7 propagation records
# ("replication" + "propagation", whose deterministic value field is
# propagation_words), and the fig7 wire-precision records ("precision",
# whose deterministic value field is wire_words).
KEY_FIELDS = (
    "bench",
    "setup",
    "algorithm",
    "elision",
    "mode",
    "replication",
    "propagation",
    "precision",
    "kernel",
    "impl",
    "p",
    "c",
    "n",
    "r",
)


def record_key(record):
    return tuple((f, record[f]) for f in KEY_FIELDS if f in record)


def deterministic_values(record):
    return {
        name: value
        for name, value in record.items()
        if name not in KEY_FIELDS
        and not any(name.endswith(s) for s in NONDETERMINISTIC_SUFFIXES)
    }


def load(path):
    try:
        with open(path) as handle:
            records = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_bench_words: cannot read {path}: {error}")
        sys.exit(2)
    if not isinstance(records, list):
        print(f"check_bench_words: {path} is not a JSON record list")
        sys.exit(2)
    table = {}
    for record in records:
        key = record_key(record)
        if key in table:
            print(f"check_bench_words: duplicate record key in {path}: {key}")
            sys.exit(2)
        table[key] = deterministic_values(record)
    return table


def describe(key):
    return ", ".join(f"{name}={value}" for name, value in key)


# Field names are C-identifier-shaped: they come straight from string
# literals in the benches, so anything else is an escaping bug.
FIELD_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def schema_problems(path, records):
    """Structural complaints about one bench JSON, as strings."""
    problems = []
    if not isinstance(records, list):
        return [f"{path}: top level must be a JSON array of records"]
    if not records:
        problems.append(f"{path}: empty record list")
    seen = {}
    for i, record in enumerate(records):
        where = f"{path}[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: record is not a JSON object")
            continue
        for name, value in record.items():
            if not FIELD_NAME_RE.match(name):
                problems.append(
                    f"{where}: field name {name!r} is not "
                    f"identifier-shaped")
            if isinstance(value, (dict, list)):
                problems.append(
                    f"{where}: field {name} is nested "
                    f"({type(value).__name__}); records must be flat")
            elif name in KEY_FIELDS:
                if not isinstance(value, (str, int)):
                    problems.append(
                        f"{where}: key field {name}={value!r} must be a "
                        f"string or integer")
            elif isinstance(value, bool) or not isinstance(
                    value, (int, float, type(None))):
                problems.append(
                    f"{where}: value field {name}={value!r} must be a "
                    f"number or null")
        if not any(f in record for f in KEY_FIELDS):
            problems.append(
                f"{where}: record carries none of the key fields "
                f"{KEY_FIELDS}")
        # Every bench, the measurement log BENCH_local_kernels.json
        # included, writes one record per configuration.
        key = record_key(record)
        if key in seen:
            problems.append(
                f"{where}: duplicate record key (first at index "
                f"{seen[key]}): {describe(key)}")
        else:
            seen[key] = i
    return problems


def schema_main(paths):
    if not paths:
        print("check_bench_words: --schema needs at least one JSON file")
        return 2
    failed = False
    for path in paths:
        try:
            with open(path) as handle:
                records = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"check_bench_words: cannot read {path}: {error}")
            return 2
        problems = schema_problems(path, records)
        if problems:
            failed = True
            for problem in problems:
                print(f"  {problem}")
            print(f"check_bench_words: --schema: {path}: "
                  f"{len(problems)} problem(s)")
        else:
            count = len(records)
            print(f"check_bench_words: --schema: {path}: OK "
                  f"({count} records)")
    return 1 if failed else 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--schema":
        return schema_main(argv[2:])
    if len(argv) not in (3, 4):
        print(__doc__)
        return 2
    baseline_path, fresh_path = argv[1], argv[2]
    name = argv[3] if len(argv) == 4 else fresh_path
    baseline = load(baseline_path)
    fresh = load(fresh_path)

    problems = []
    for key in sorted(set(baseline) - set(fresh)):
        problems.append(f"missing record: {describe(key)}")
    for key in sorted(set(fresh) - set(baseline)):
        problems.append(f"unexpected new record: {describe(key)}")
    for key in sorted(set(baseline) & set(fresh)):
        want, have = baseline[key], fresh[key]
        for field in sorted(set(want) | set(have)):
            if field not in want:
                problems.append(
                    f"new field {field}={have[field]} in {describe(key)}")
            elif field not in have:
                problems.append(
                    f"dropped field {field} (was {want[field]}) in "
                    f"{describe(key)}")
            elif want[field] != have[field]:
                problems.append(
                    f"{field} drifted {want[field]} -> {have[field]} in "
                    f"{describe(key)}")

    if problems:
        print(f"check_bench_words: {name}: {len(problems)} deterministic-"
              f"field difference(s) vs {baseline_path}:")
        for problem in problems:
            print(f"  {problem}")
        print("If the change is intentional (new workload, real word-count "
              "improvement), regenerate and commit the baseline.")
        return 1
    print(f"check_bench_words: {name}: {len(fresh)} records match "
          f"{baseline_path} on every deterministic field.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
