#!/usr/bin/env python3
"""dsk_lint: repo-invariant static analysis for the dsk codebase.

Every correctness bug this repo has shipped was a *class*, not a
one-off. This tool enforces the classes statically, before a test has
to get lucky:

  D1 determinism        Iterating an unordered_set/unordered_map feeds
                        stdlib-dependent order into whatever consumes
                        the loop — wire payloads, JSON output, digests,
                        RNG-paired draws (the PR-5 generator bug).
                        Iteration must be canonicalized (copy out, then
                        sort — recognized automatically) or annotated.
  P1 protocol account   Every pack_<base> / encode_<base> in the
                        wire-format files (src/runtime/collectives.*,
                        src/runtime/wire.*, src/dist/shards.*) must
                        have a matching unpack_<base> / decode_<base>
                        and a *_words cost function, and all three must
                        be exercised by at least one file under tests/.
                        Pack/unpack/words falling out of lockstep is
                        how sparse wire formats rot.
  R1 recovery digests   Every restore path (functions named
                        restore/reconstruct/adopt in
                        src/runtime/checkpoint.* / recovery.*) must
                        verify a digest before the bytes are trusted.
  W1 phase/watchdog     PhaseScope must be a *named* local — an unnamed
                        temporary `PhaseScope(stats, phase);` closes its
                        scope on the same line and silently misattributes
                        every span after it. Timed receives
                        (.receive_for) must sit next to a bounded
                        backoff (an attempt cap), never an unbounded
                        retry spin.
  A0 annotations        `// dsk-lint: allow(<check>) <reason>` grammar:
                        unknown check names, missing reasons, and
                        annotations that suppress nothing are findings
                        themselves, so suppressions cannot rot.

Engine: a libclang AST walk refines D1 when `clang.cindex` is
importable; everything else (and D1 wherever libclang is unavailable or
fails) runs on a deterministic hand-rolled tokenizer, so CI never
silently skips a check. `--engine tokenizer` pins the fallback for
reproducible runs.

Suppression: put `// dsk-lint: allow(D1) <reason>` (comma-separated
checks allowed) on the flagged line or the line directly above it.

Usage:
  dsk_lint.py                   # scan the repo tree (src tools tests
                                # bench examples), cross-ref tests/
  dsk_lint.py FILE...           # scan specific files (no tests xref)
  dsk_lint.py --list-checks
  dsk_lint.py --engine tokenizer

Exit status: 0 clean, 1 findings, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

CHECKS = {
    "D1": "unordered-container iteration order escapes",
    "P1": "pack/unpack/words wire-protocol triple incomplete or untested",
    "R1": "restore path skips digest verification",
    "W1": "unnamed PhaseScope temporary or unbounded timed receive",
    "A0": "malformed, unknown, or unused dsk-lint annotation",
}

REPO_SUBDIRS = ("src", "tools", "tests", "bench", "examples")
EXCLUDE_PARTS = ("lint_fixtures", "build", "_deps", ".git")
CXX_EXTENSIONS = (".cpp", ".hpp", ".cc", ".h")

# P1 scope: the wire-format files whose pack/unpack/words triples are
# the sparse protocol's single source of truth. Fixture files are
# always in scope so the check itself stays regression-tested.
P1_BASENAMES = re.compile(r"^(collectives|shards|wire)\.(hpp|cpp|h|cc)$")
# P1 verb families: the classic pack/unpack message pairs plus the
# wire-codec encode/decode pairs (src/runtime/wire.*).
P1_VERB_PAIRS = (("pack", "unpack"), ("encode", "decode"))
# R1 digest scope: the restore-path implementation files.
R1_BASENAMES = re.compile(r"^(checkpoint|recovery)\.(hpp|cpp|h|cc)$")
FIXTURE_PART = os.sep + "lint_fixtures" + os.sep


def in_p1_scope(path):
    return bool(P1_BASENAMES.match(os.path.basename(path))) or \
        FIXTURE_PART in path


def in_r1_scope(path):
    return bool(R1_BASENAMES.match(os.path.basename(path))) or \
        FIXTURE_PART in path
R1_RESTORE_NAME = re.compile(r"^(.*_)?(restore|reconstruct|adopt)$")

ALLOW_RE = re.compile(
    r"//\s*dsk-lint:\s*allow\(([^)]*)\)\s*(.*)$")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifier / keyword
    r"|\d[\w.]*"                   # number
    r"|::|->|\.|[{}()\[\];:,<>=!&|*~^%+/?-]"  # punctuation we care about
)
# Identifiers that mark a bounded-backoff context around a timed
# receive: an attempt cap, a spin limit, or an explicit backoff series.
W1_BACKOFF_RE = re.compile(r"max_attempts|SpinLimit|backoff|attempts")
W1_BACKOFF_WINDOW = 45
D1_SORT_WINDOW = 6


class Finding:
    __slots__ = ("path", "line", "check", "message")

    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: {self.check}: {self.message}"


class SourceFile:
    """One parsed C++ file: stripped code lines, token stream, and the
    dsk-lint allow annotations found in its comments."""

    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8", errors="replace") as handle:
            self.raw = handle.read()
        self.lines = strip_comments_and_strings(self.raw)
        self.tokens = []  # (token, line_number)
        for number, line in enumerate(self.lines, start=1):
            for match in TOKEN_RE.finditer(line):
                self.tokens.append((match.group(0), number))
        self.allows = {}  # line -> (set of checks, reason, raw_line)
        self.allow_errors = []  # Finding list for malformed annotations
        self._parse_allows()
        self.used_allows = set()  # line numbers that suppressed something

    def _parse_allows(self):
        for number, line in enumerate(self.raw.splitlines(), start=1):
            if "dsk-lint" not in line:
                continue
            match = ALLOW_RE.search(line)
            if not match:
                self.allow_errors.append(Finding(
                    self.path, number, "A0",
                    "dsk-lint comment does not match "
                    "`// dsk-lint: allow(<check>[,<check>]) <reason>`"))
                continue
            checks = {c.strip() for c in match.group(1).split(",") if
                      c.strip()}
            reason = match.group(2).strip()
            unknown = sorted(c for c in checks if c not in CHECKS)
            if unknown:
                self.allow_errors.append(Finding(
                    self.path, number, "A0",
                    f"unknown check name(s) {', '.join(unknown)} in allow "
                    f"annotation (known: {', '.join(sorted(CHECKS))})"))
                checks -= set(unknown)
            if not reason:
                self.allow_errors.append(Finding(
                    self.path, number, "A0",
                    "allow annotation is missing its reason"))
            if checks:
                self.allows[number] = checks

    def allowed(self, line, check):
        """True (and marks the annotation used) when an allow for
        `check` sits on `line` or the line directly above it."""
        for candidate in (line, line - 1):
            checks = self.allows.get(candidate)
            if checks and check in checks:
                self.used_allows.add(candidate)
                return True
        return False

    def line_text(self, number):
        return self.lines[number - 1] if 1 <= number <= len(self.lines) \
            else ""

    def window_text(self, center, radius):
        lo = max(0, center - 1 - radius)
        hi = min(len(self.lines), center + radius)
        return "\n".join(self.lines[lo:hi])

    def unused_allow_findings(self):
        out = []
        for number in sorted(set(self.allows) - self.used_allows):
            checks = ",".join(sorted(self.allows[number]))
            out.append(Finding(
                self.path, number, "A0",
                f"allow({checks}) annotation suppresses nothing — remove "
                f"it or fix the check name"))
        return out


def strip_comments_and_strings(text):
    """Replace comments and string/char literal contents with spaces,
    preserving line structure, so token scans never match quoted or
    commented text."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    quote_escape = False
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                # Raw string literal: R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (
                        i < 2 or not text[i - 2].isalnum()):
                    close = text.find('"', i + 1)
                    paren = text.find("(", i + 1)
                    if paren != -1 and (close == -1 or paren < close):
                        delim = text[i + 1:paren]
                        end = text.find(")" + delim + '"', paren + 1)
                        if end != -1:
                            stop = end + len(delim) + 2
                            for c in text[i:stop]:
                                out.append("\n" if c == "\n" else " ")
                            i = stop
                            continue
                state = "string"
                quote_escape = False
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "char"
                quote_escape = False
                out.append(" ")
                i += 1
                continue
            out.append(ch)
            i += 1
            continue
        if state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
            i += 1
            continue
        # string / char literal
        terminator = '"' if state == "string" else "'"
        if quote_escape:
            quote_escape = False
        elif ch == "\\":
            quote_escape = True
        elif ch == terminator:
            state = "code"
        out.append("\n" if ch == "\n" else " ")
        i += 1
    return "".join(out).splitlines()


# --------------------------------------------------------------- helpers

def match_forward(tokens, start, open_tok, close_tok):
    """Index of the token matching tokens[start] (an open_tok), or -1."""
    depth = 0
    for k in range(start, len(tokens)):
        t = tokens[k][0]
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return k
    return -1


def unordered_variable_names(tokens):
    """Names declared with an unordered_set/unordered_map type."""
    names = {}
    k = 0
    while k < len(tokens):
        tok, _ = tokens[k]
        if tok in ("unordered_set", "unordered_map"):
            j = k + 1
            if j < len(tokens) and tokens[j][0] == "<":
                depth = 0
                while j < len(tokens):
                    t = tokens[j][0]
                    if t == "<":
                        depth += 1
                    elif t == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                j += 1
            # Skip ref/pointer qualifiers between type and name.
            while j < len(tokens) and tokens[j][0] in ("&", "*", "const"):
                j += 1
            if j < len(tokens) and IDENT_RE.fullmatch(tokens[j][0]):
                names[tokens[j][0]] = tokens[j][1]
        k += 1
    return names


def statement_bounds(tokens, k):
    """Token index range [lo, hi) of the statement containing index k."""
    lo = k
    while lo > 0 and tokens[lo - 1][0] not in (";", "{", "}"):
        lo -= 1
    hi = k
    while hi < len(tokens) and tokens[hi][0] != ";":
        hi += 1
    return lo, min(hi + 1, len(tokens))


# ---------------------------------------------------------------- checks

def check_d1(src):
    """Iteration over unordered containers. Recognizes the canonical
    copy-then-sort pattern (assign/construct into a target that is
    std::sort-ed within the next few lines) as already deterministic."""
    findings = []
    unordered = unordered_variable_names(src.tokens)
    if not unordered:
        return findings
    tokens = src.tokens
    flagged_statements = set()

    def flag(k, line, why):
        lo, _ = statement_bounds(tokens, k)
        if lo in flagged_statements:
            return
        flagged_statements.add(lo)
        findings.append(Finding(src.path, line, "D1", why))

    for k, (tok, line) in enumerate(tokens):
        if tok == "for" and k + 1 < len(tokens) and \
                tokens[k + 1][0] == "(":
            close = match_forward(tokens, k + 1, "(", ")")
            if close == -1:
                continue
            # Range-for: a top-level ':' (not '::') inside the parens.
            depth = 0
            for j in range(k + 2, close):
                t = tokens[j][0]
                if t in ("(", "[", "<"):
                    depth += 1
                elif t in (")", "]", ">"):
                    depth -= 1
                elif t == ":" and depth == 0 and \
                        tokens[j - 1][0] != ":" and \
                        (j + 1 >= len(tokens) or tokens[j + 1][0] != ":"):
                    for m in range(j + 1, close):
                        name = tokens[m][0]
                        if name in unordered:
                            flag(m, tokens[m][1],
                                 f"range-for over unordered container "
                                 f"'{name}' — iteration order is stdlib-"
                                 f"dependent; copy out and sort first")
                        break
                    break
        elif tok in ("begin", "end", "cbegin", "cend") and k >= 2 and \
                tokens[k - 1][0] == "." and \
                tokens[k - 2][0] in unordered and \
                k + 1 < len(tokens) and tokens[k + 1][0] == "(":
            name = tokens[k - 2][0]
            lo, hi = statement_bounds(tokens, k)
            stmt = tokens[lo:hi]
            stmt_toks = [t for t, _ in stmt]
            target = None
            if "assign" in stmt_toks:
                a = stmt_toks.index("assign")
                if a >= 2 and stmt_toks[a - 1] == ".":
                    target = stmt_toks[a - 2]
            elif stmt_toks and IDENT_RE.fullmatch(stmt_toks[0]) and \
                    stmt_toks[0] not in unordered:
                # Declaration-style copy: vector<T> v(s.begin(), s.end())
                for t in stmt_toks[1:]:
                    if IDENT_RE.fullmatch(t) and t not in (
                            "std", "const", "auto", "vector") and \
                            t != name:
                        target = t
                        break
            if target:
                tail = src.window_text(line + D1_SORT_WINDOW // 2,
                                       D1_SORT_WINDOW)
                if re.search(r"\bsort\s*\(", tail) and \
                        re.search(rf"\b{re.escape(target)}\b", tail):
                    continue  # canonical copy-then-sort
            flag(k, line,
                 f"'{name}.{tok}()' iterates an unordered container — "
                 f"order is stdlib-dependent; copy into a vector and "
                 f"std::sort before the contents escape")
    return findings


def collect_p1_symbols(sources):
    # Keyed by (front_verb, base): encode_values and pack_values are
    # distinct triples even though they share a base.
    fronts, backs, words = {}, {}, {}
    for src in sources:
        if not in_p1_scope(src.path):
            continue
        for tok, line in src.tokens:
            # Words helpers first: encoded_*_words would otherwise
            # token-match the encode_ front verb.
            if tok.endswith("_words") and len(tok) > len("_words"):
                words.setdefault(tok, (src.path, line))
                continue
            for front, back in P1_VERB_PAIRS:
                if tok.startswith(front + "_"):
                    fronts.setdefault((front, tok[len(front) + 1:]),
                                      (src.path, line))
                    break
                if tok.startswith(back + "_"):
                    backs.setdefault((front, tok[len(back) + 1:]),
                                     (src.path, line))
                    break
    return fronts, backs, words


def check_p1(sources, test_identifiers):
    """pack/unpack (and encode/decode) words triples in the wire-format
    files, each pinned by at least one test when the tests/ tree is in
    scope."""
    findings = []
    fronts, backs, words = collect_p1_symbols(sources)
    back_verb = dict(P1_VERB_PAIRS)

    def words_for(base):
        base_parts = [p for p in base.split("_") if len(p) > 2]
        return sorted(w for w in words
                      if any(p in w for p in base_parts))

    src_by_path = {s.path: s for s in sources}
    for front, base in sorted(fronts):
        back = back_verb[front]
        path, line = fronts[(front, base)]
        src = src_by_path[path]
        if (front, base) not in backs:
            if not src.allowed(line, "P1"):
                findings.append(Finding(
                    path, line, "P1",
                    f"{front}_{base} has no matching {back}_{base} in "
                    f"the wire-format files"))
            continue
        matching_words = words_for(base)
        if not matching_words:
            if not src.allowed(line, "P1"):
                findings.append(Finding(
                    path, line, "P1",
                    f"{front}_{base}/{back}_{base} have no *_words cost "
                    f"function (expected a name containing "
                    f"'{base.split('_')[0]}')"))
            continue
        if test_identifiers is None:
            continue
        missing = [n for n in (f"{front}_{base}", f"{back}_{base}")
                   if n not in test_identifiers]
        if not any(w in test_identifiers for w in matching_words):
            missing.append(" or ".join(matching_words))
        if missing and not src.allowed(line, "P1"):
            findings.append(Finding(
                path, line, "P1",
                f"wire triple for '{base}' is not pinned by tests/ "
                f"(missing: {', '.join(missing)})"))
    return findings


def check_r1(src):
    """Restore paths must verify a digest before trusting bytes."""
    findings = []
    if not in_r1_scope(src.path):
        return findings
    tokens = src.tokens
    k = 0
    while k < len(tokens):
        tok, line = tokens[k]
        if IDENT_RE.fullmatch(tok) and R1_RESTORE_NAME.match(tok) and \
                k + 1 < len(tokens) and tokens[k + 1][0] == "(":
            close = match_forward(tokens, k + 1, "(", ")")
            if close != -1 and close + 1 < len(tokens) and \
                    tokens[close + 1][0] in ("{", "const", ":"):
                # Function definition (possibly const-qualified or
                # with a ctor init list): find the body.
                b = close + 1
                while b < len(tokens) and tokens[b][0] != "{":
                    if tokens[b][0] == ";":
                        b = -1
                        break
                    b += 1
                if b != -1 and b < len(tokens):
                    end = match_forward(tokens, b, "{", "}")
                    body = tokens[b:end if end != -1 else len(tokens)]
                    if not any("digest" in t for t, _ in body):
                        if not src.allowed(line, "R1"):
                            findings.append(Finding(
                                src.path, line, "R1",
                                f"restore path '{tok}' never touches "
                                f"a digest — restored bytes must be "
                                f"verified before use"))
                    k = end if end != -1 else k + 1
                    continue
        k += 1
    return findings


def check_w1(src):
    findings = []
    tokens = src.tokens
    declares_phasescope = any(
        tok == "PhaseScope" and k >= 1 and
        tokens[k - 1][0] in ("class", "struct")
        for k, (tok, _) in enumerate(tokens))
    for k, (tok, line) in enumerate(tokens):
        if tok == "PhaseScope" and not declares_phasescope and \
                k + 1 < len(tokens) and tokens[k + 1][0] in ("(", "{"):
            prev = tokens[k - 1][0] if k >= 1 else "{"
            if prev in (";", "{", "}"):
                if not src.allowed(line, "W1"):
                    findings.append(Finding(
                        src.path, line, "W1",
                        "unnamed PhaseScope temporary — it is destroyed "
                        "at the end of this statement, so the span it "
                        "was meant to time attributes to the wrong "
                        "phase; name it (PhaseScope scope(...))"))
        elif tok == "receive_for" and k >= 1 and \
                tokens[k - 1][0] in (".", "->"):
            window = src.window_text(line, W1_BACKOFF_WINDOW)
            if not W1_BACKOFF_RE.search(window):
                if not src.allowed(line, "W1"):
                    findings.append(Finding(
                        src.path, line, "W1",
                        "timed receive without a bounded backoff — the "
                        "retry loop needs an attempt cap (max_attempts / "
                        "spin limit) or it spins forever on a wedged "
                        "peer"))
    return findings


# -------------------------------------------------------- libclang (D1)

def try_ast_d1(sources, include_dir):
    """AST-based D1 when python-clang + libclang are present. Returns
    {path: findings} or None when the walk is unavailable/fails — the
    caller then uses the tokenizer result, so nothing silently skips."""
    try:
        from clang import cindex  # noqa: PLC0415
        index = cindex.Index.create()
    except Exception:
        return None
    results = {}
    try:
        for src in sources:
            if not src.path.endswith((".cpp", ".cc")):
                continue
            tu = index.parse(
                src.path,
                args=["-std=c++20", f"-I{include_dir}"],
                options=0)
            findings = []

            def unordered_type(node):
                spelling = node.type.spelling
                return "unordered_set" in spelling or \
                    "unordered_map" in spelling

            def walk(node):
                if node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                    children = list(node.get_children())
                    if len(children) >= 2 and unordered_type(children[-2]):
                        loc = node.location
                        findings.append(Finding(
                            src.path, loc.line, "D1",
                            "range-for over an unordered container "
                            "(AST) — iteration order is stdlib-"
                            "dependent"))
                for child in node.get_children():
                    if child.location.file and \
                            child.location.file.name == src.path:
                        walk(child)

            walk(tu.cursor)
            results[src.path] = findings
    except Exception:
        return None
    return results


# ------------------------------------------------------------------ main

def gather_files(paths, root):
    files = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in EXCLUDE_PARTS and not d.startswith("."))
                if any(part in EXCLUDE_PARTS
                       for part in dirpath.split(os.sep)):
                    continue
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"dsk_lint: no such file or directory: {path}",
                  file=sys.stderr)
            sys.exit(2)
    return sorted(set(os.path.abspath(f) for f in files))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="dsk_lint.py",
        description="repo-invariant static analysis for dsk")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: repo tree)")
    parser.add_argument("--engine", choices=("auto", "tokenizer", "ast"),
                        default="auto")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                        "script)")
    args = parser.parse_args(argv[1:])

    if args.list_checks:
        for check in sorted(CHECKS):
            print(f"{check}: {CHECKS[check]}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tree_mode = not args.paths
    if tree_mode:
        scan_roots = [os.path.join(root, d) for d in REPO_SUBDIRS
                      if os.path.isdir(os.path.join(root, d))]
    else:
        scan_roots = args.paths
    files = gather_files(scan_roots, root)
    if not files:
        print("dsk_lint: nothing to scan", file=sys.stderr)
        return 2

    sources = [SourceFile(path) for path in files]

    # Identifier universe of tests/ for the P1 cross-reference. Only in
    # tree mode: single-file runs (fixtures) check structure, not
    # coverage.
    test_identifiers = None
    if tree_mode:
        test_identifiers = set()
        for src in sources:
            rel = os.path.relpath(src.path, root)
            if rel.startswith("tests" + os.sep):
                for tok, _ in src.tokens:
                    if IDENT_RE.fullmatch(tok):
                        test_identifiers.add(tok)

    engine = "tokenizer"
    ast_d1 = None
    if args.engine in ("auto", "ast"):
        ast_d1 = try_ast_d1(sources, os.path.join(root, "src"))
        if ast_d1 is not None:
            engine = "ast+tokenizer"
        elif args.engine == "ast":
            print("dsk_lint: --engine ast requested but clang.cindex is "
                  "unavailable or failed; refusing to silently skip",
                  file=sys.stderr)
            return 2

    findings = []
    for src in sources:
        findings.extend(src.allow_errors)
        if ast_d1 is not None and src.path in ast_d1:
            tokenizer_d1 = check_d1(src)
            ast_lines = {f.line for f in ast_d1[src.path]}
            # Union the two views: the AST walk confirms real iteration
            # statements; the tokenizer catches headers and .begin()
            # escapes the AST pass does not model.
            merged = {(f.line, f.message): f for f in tokenizer_d1}
            for f in ast_d1[src.path]:
                if f.line not in {line for line, _ in merged}:
                    merged[(f.line, f.message)] = f
            d1 = [f for f in merged.values()
                  if not src.allowed(f.line, "D1")]
        else:
            d1 = [f for f in check_d1(src)
                  if not src.allowed(f.line, "D1")]
        findings.extend(d1)
        findings.extend(check_r1(src))
        findings.extend(check_w1(src))
    findings.extend(check_p1(sources, test_identifiers))
    for src in sources:
        findings.extend(src.unused_allow_findings())

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    for finding in findings:
        print(finding.render(root))
    if findings:
        print(f"dsk_lint: {len(findings)} finding(s) in {len(files)} "
              f"file(s) [engine={engine}]")
        return 1
    print(f"dsk_lint: clean ({len(files)} files, engine={engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
