#!/usr/bin/env python3
"""Repo-specific invariant lint for setsched (runs as ctest `test_lint`).

Five rules, each protecting an invariant the compiler cannot see:

  float-eq     No floating-point ==/!= against a nonzero decimal literal in
               src/lp or src/exact. Exact-zero tests (`x == 0.0`) are sparse-
               kernel idiom and stay legal, as do variable-to-variable
               comparisons on input data (undetectable by a lexical lint and
               intentionally exact in this codebase). Nonzero literal
               comparisons are the footgun: they encode a tolerance of zero.
               Suppress per line: `// lint: allow-float-eq (reason)`.

  tolerance    No magic tolerance literals (scientific notation with a
               negative exponent, e.g. 1e-9) in src/lp, src/exact or
               src/colgen outside the named-tolerance definition sites
               (lp/tolerances.h, exact/tolerances.h, the annotated
               constants of colgen/config_lp). Everything else must spell a
               named constant so tolerances stay auditable in one place.
               Suppress per line: `// lint: allow-tolerance (reason)`,
               or whole file: `// lint: allow-tolerance-file (reason)`.

  raw-mutex    No naked std::mutex / lock / condition_variable types outside
               src/common/annotations.h. Concurrency in src/ goes through the
               annotated Mutex/MutexLock/CondVar wrappers so Clang's thread
               safety analysis sees every lock site.
               Suppress per line: `// lint: allow-raw-mutex (reason)`.

  deadline     No duration_cast to steady_clock::duration (spelled
               `std::chrono::steady_clock::duration` or `Clock::duration`,
               also when wrapped over lines) in src/ outside
               src/common/timer.h. Turning seconds into a deadline goes
               through deadline_in() there, which clamps a span beyond the
               clock's range to "no deadline": an unchecked cast of, say,
               --time-limit=1e300 overflows the tick count into the past
               and aborts the run at once. No suppression.

  knob         Every data member of a `struct *Options` declared in a header
               under src/ is assigned (`.name =`, `->name =`, or a
               compound assignment) somewhere in src/ or perfbench/ outside
               its declaration; tests/ and examples/ do not count. An option
               no production caller sets is a constant in disguise: make it
               one. Members match by name, so any same-named member's
               assignment counts. Suppress on the declaration's line or the
               line just above it: `// lint: allow-knob (why it stays)`.

Every suppression requires a non-empty reason in parentheses; a bare
`lint: allow-*` marker is itself a violation. Exit status 0 iff clean.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

TOLERANCE_SCOPE = ("src/lp", "src/exact", "src/colgen")
FLOAT_EQ_SCOPE = ("src/lp", "src/exact")
MUTEX_SCOPE = ("src",)
MUTEX_EXEMPT = {"src/common/annotations.h"}
DEADLINE_SCOPE = ("src",)
DEADLINE_EXEMPT = {"src/common/timer.h"}
KNOB_SCOPE = ("src", "perfbench")  # where an assignment counts

SUPPRESS_RE = re.compile(
    r"lint:\s*allow-(?P<rule>tolerance-file|tolerance|float-eq|raw-mutex"
    r"|knob)"
    # The reason may wrap to the next comment line, so accept end-of-line in
    # place of the closing parenthesis.
    r"(?:\s*\((?P<reason>[^)]*)(?:\)|$))?")

# A float literal: has a '.' or an exponent (bare integers never match).
FLOAT_LIT = r"[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?|\.[0-9]+(?:[eE][-+]?[0-9]+)?|[0-9]+[eE][-+]?[0-9]+"
FLOAT_EQ_RE = re.compile(
    r"(?:(?<![=!<>+\-*/])(?:==|!=)\s*(?P<rhs>{lit})\b)|"
    r"(?:\b(?P<lhs>{lit})\s*(?:==|!=)(?![=]))".format(lit=FLOAT_LIT))
TOLERANCE_RE = re.compile(r"\b[0-9]+(?:\.[0-9]*)?[eE]-[0-9]+\b")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|shared_)?mutex\b"
    r"|\bstd::(?:scoped_lock|lock_guard|unique_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b")
DEADLINE_RE = re.compile(
    r"\bduration_cast\s*<\s*(?:[\w:]*\bsteady_clock|Clock)::duration\s*>")
OPTIONS_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Options)\s*\{")
MEMBER_NAME_RE = re.compile(r"(\w+)\s*(?:=.*|\{.*\})?$", re.DOTALL)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line breaks."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'" and out and out[-1].isdigit() and nxt.isalnum():
                out.append(c)  # digit separator (200'000), not a char
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


def options_members(code: str):
    """(struct, member, offset) of every data member of each `struct
    *Options` in comment-stripped `code`; member functions, static members
    and nested types are skipped."""
    for m in OPTIONS_STRUCT_RE.finditer(code):
        depth, start = 1, m.end()
        for i in range(m.end(), len(code)):
            c = code[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    break
                decl = re.split(r"[={]", code[start:i], maxsplit=1)[0]
                if depth == 1 and "(" in decl:
                    start = i + 1  # end of an inline member function body
            elif c == ";" and depth == 1:
                stmt = code[start:i]
                decl = re.split(r"[={]", stmt, maxsplit=1)[0]
                words = decl.split()
                if (words and "(" not in decl and words[0] not in
                        ("static", "using", "friend", "enum", "struct",
                         "class", "typedef", "template")):
                    name = re.search(r"(\w+)\s*$", decl)
                    if name:
                        yield (m.group(1), name.group(1),
                               start + name.start(1))
                start = i + 1


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.violations: list[str] = []
        # knob: declared members (path, line, struct, name, suppressed) and
        # the comment-stripped code in which an assignment counts.
        self.knob_decls: list[tuple[pathlib.Path, int, str, str, bool]] = []
        self.knob_code: list[str] = []

    def report(self, path: pathlib.Path, line_no: int, rule: str, msg: str):
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{line_no}: [{rule}] {msg}")

    def scan_file(self, path: pathlib.Path):
        rel = path.relative_to(self.root).as_posix()
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()

        # Suppressions are read from the raw text (they live in comments).
        line_allows: dict[int, set[str]] = {}
        file_allows: set[str] = set()
        for idx, line in enumerate(raw_lines, start=1):
            for m in SUPPRESS_RE.finditer(line):
                rule = m.group("rule")
                reason = (m.group("reason") or "").strip()
                if not reason:
                    self.report(path, idx, "suppression",
                                f"allow-{rule} marker without a reason; "
                                "write `lint: allow-" + rule + " (why)`")
                    continue
                if rule == "tolerance-file":
                    file_allows.add("tolerance")
                else:
                    line_allows.setdefault(idx, set()).add(rule)

        code = strip_comments_and_strings(raw)
        code_lines = code.splitlines()

        if rel.startswith(KNOB_SCOPE):
            self.knob_code.append(code)
        if rel.startswith("src/") and rel.endswith(".h"):
            for struct, name, offset in options_members(code):
                line = code.count("\n", 0, offset) + 1
                allowed = any("knob" in line_allows.get(k, set())
                              for k in (line, line - 1))
                self.knob_decls.append((path, line, struct, name, allowed))

        in_tol_scope = rel.startswith(TOLERANCE_SCOPE)
        in_eq_scope = rel.startswith(FLOAT_EQ_SCOPE)
        in_mutex_scope = (rel.startswith(MUTEX_SCOPE)
                          and rel not in MUTEX_EXEMPT)
        in_deadline_scope = (rel.startswith(DEADLINE_SCOPE)
                             and rel not in DEADLINE_EXEMPT)

        for idx, line in enumerate(code_lines, start=1):
            allows = line_allows.get(idx, set())
            if in_eq_scope and "float-eq" not in allows:
                for m in FLOAT_EQ_RE.finditer(line):
                    lit = m.group("rhs") or m.group("lhs")
                    if float(lit) == 0.0:
                        continue  # exact-zero sparsity checks are idiom
                    self.report(
                        path, idx, "float-eq",
                        f"floating-point equality against nonzero literal "
                        f"{lit}; compare with a named tolerance instead")
            if (in_tol_scope and "tolerance" not in file_allows
                    and "tolerance" not in allows):
                for m in TOLERANCE_RE.finditer(line):
                    self.report(
                        path, idx, "tolerance",
                        f"magic tolerance literal {m.group(0)}; hoist it into "
                        "lp/tolerances.h or exact/tolerances.h (or "
                        "annotate `lint: allow-tolerance (reason)`)")
            if in_mutex_scope and "raw-mutex" not in allows:
                m = RAW_MUTEX_RE.search(line)
                if m:
                    self.report(
                        path, idx, "raw-mutex",
                        f"naked {m.group(0)} outside common/annotations.h; "
                        "use the annotated Mutex/MutexLock/CondVar wrappers")

        if in_deadline_scope:
            # Over the whole file: the cast's template argument may wrap.
            code = "\n".join(code_lines)
            for m in DEADLINE_RE.finditer(code):
                cast = " ".join(m.group(0).split())
                self.report(
                    path, code.count("\n", 0, m.start()) + 1, "deadline",
                    f"unclamped {cast} outside common/timer.h; build "
                    "deadlines with deadline_in() (a cast of "
                    "--time-limit=1e300 overflows into the past)")

    def check_knobs(self):
        code = "\n".join(self.knob_code)
        for path, line, struct, name, allowed in self.knob_decls:
            assigned = re.search(
                r"(?:\.|->)\s*" + name + r"\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)",
                code) is not None
            if not assigned and not allowed:
                self.report(path, line, "knob",
                            f"{struct}::{name} is never set in src/ or "
                            "perfbench/; make it a constant (or annotate "
                            "`lint: allow-knob (why)`)")

    def scan_tree(self) -> int:
        """Scans src/ under every rule and perfbench/ for knob assignments;
        returns the number of files scanned."""
        files = []
        for top in KNOB_SCOPE:
            for pattern in ("*.h", "*.cpp"):
                files += sorted((self.root / top).rglob(pattern))
        for path in files:
            if path.relative_to(self.root).as_posix().startswith("src/"):
                self.scan_file(path)
            else:  # perfbench: only its assignments count, for knob
                raw = path.read_text(encoding="utf-8")
                self.knob_code.append(strip_comments_and_strings(raw))
        self.check_knobs()
        return len(files)

    def run(self) -> int:
        scanned = self.scan_tree()
        if self.violations:
            for v in self.violations:
                print(v)
            print(f"\nlint_invariants: {len(self.violations)} violation(s)")
            return 1
        print(f"lint_invariants: OK ({scanned} files scanned)")
        return 0


def self_test() -> int:
    """Seed a fake tree with one violation per rule and assert each fires.

    Guards against the lint rotting into a tautology: a regex edit that stops
    a rule from matching anything would otherwise keep `test_lint` green.
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src/lp").mkdir(parents=True)
        (root / "src/lp/bad.cpp").write_text(
            "void f(double x) {\n"
            "  if (x == 1.5) {}\n"                      # float-eq fires
            "  if (x == 0.0) {}\n"                      # zero: stays legal
            "  double tol = 1e-9;\n"                    # tolerance fires
            "  double named = 1e-7;  // lint: allow-tolerance (self-test)\n"
            "  double bare = 1e-8;   // lint: allow-tolerance\n"  # no reason
            "  std::mutex m;\n"                         # raw-mutex fires
            "}\n")
        (root / "src/expt").mkdir(parents=True)
        (root / "src/expt/bad.cpp").write_text(
            "auto a = now + std::chrono::duration_cast<\n"
            "    std::chrono::steady_clock::duration>(s);\n"  # wrapped: fires
            "auto b = now + std::chrono::duration_cast<"
            "std::chrono::steady_clock::duration>(s);\n"      # deadline fires
            "auto c = now + duration_cast<Clock::duration>(s);\n"  # fires
            "auto d = duration_cast<std::chrono::nanoseconds>(s);\n"  # legal
            )
        (root / "src/common").mkdir(parents=True)
        (root / "src/common/timer.h").write_text(
            "auto e = now + duration_cast<Clock::duration>(s);\n")  # exempt

        (root / "src/knob").mkdir(parents=True)
        (root / "src/knob/opts.h").write_text(
            "struct FooOptions {\n"
            "  int set_in_src = 1;\n"
            "  int set_in_perfbench = 2;\n"
            "  int set_in_tests = 3;\n"               # knob fires
            "  int never_set = 4;\n"                  # knob fires
            "  std::size_t big = 200'000;\n"          # knob fires
            "  int kept = 5;  // lint: allow-knob (self-test)\n"
            "  // lint: allow-knob (self-test, line above)\n"
            "  int kept_above = 6;\n"
            "  [[nodiscard]] int twice() const { return set_in_src * 2; }\n"
            "  static constexpr int kLimit = 7;\n"
            "};\n")
        (root / "src/knob/use.cpp").write_text(
            "void g(FooOptions& o) { o.set_in_src = 2; }\n")
        (root / "perfbench").mkdir()
        (root / "perfbench/use.cpp").write_text(
            "void h(FooOptions* o) { o->set_in_perfbench += 1; }\n")
        (root / "tests").mkdir()
        (root / "tests/use.cpp").write_text(
            "void t(FooOptions& o) { o.set_in_tests = 9; }\n")

        linter = Linter(root)
        linter.scan_tree()

        text = "\n".join(linter.violations)
        expectations = {
            "float-eq": "1.5",
            "tolerance": "1e-9",
            "suppression": "without a reason",
            "raw-mutex": "std::mutex",
        }
        failed = False
        for rule, needle in expectations.items():
            hits = [v for v in linter.violations
                    if f"[{rule}]" in v and needle in v]
            if not hits:
                print(f"self-test FAILED: rule '{rule}' did not fire "
                      f"(expected a violation mentioning '{needle}')")
                failed = True
        knob_hits = sorted(v.split("::")[1].split()[0]
                           for v in linter.violations if "[knob]" in v)
        if knob_hits != ["big", "never_set", "set_in_tests"]:
            print("self-test FAILED: rule 'knob' should fire on big, "
                  f"never_set and set_in_tests only, fired on {knob_hits}")
            failed = True
        deadline_hits = sorted(
            v.split(":")[1] for v in linter.violations if "[deadline]" in v)
        if deadline_hits != ["1", "3", "4"]:
            print("self-test FAILED: rule 'deadline' should fire on lines "
                  f"1, 3, 4 of src/expt/bad.cpp only, fired on {deadline_hits}")
            failed = True
        for legal in ("0.0", "1e-7"):
            if any(legal in v and "[float-eq]" in v or
                   ("[tolerance]" in v and f" {legal};" in v)
                   for v in linter.violations):
                print(f"self-test FAILED: legal pattern '{legal}' flagged")
                failed = True
        if failed:
            print(text)
            return 1
    print("lint_invariants: self-test OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on a seeded fake tree "
                             "before scanning the real one")
    args = parser.parse_args()
    if args.self_test:
        status = self_test()
        if status != 0:
            return status
    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"lint_invariants: no src/ under {root}", file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
