#!/usr/bin/env python3
"""kibamrm-lint: project-invariant checks the generic tools cannot express.

Four checks, each enforcing an invariant the library's correctness
story leans on (see README "Static analysis & code health"):

  determinism        engine/, linalg/ and markov/ feed solver results;
                     nothing there may draw from unseeded randomness
                     (rand(), std::random_device, mt19937 outside
                     common/random) or iterate an unordered container
                     (hash order is process-randomised -- iteration
                     order must never reach a result).

  reduction-contract the fixed-block reduction contract (bitwise
                     identical results across threads and SIMD tiers)
                     only holds when (a) every translation unit that
                     implements contract kernels is pinned with
                     -ffp-contract=off in CMakeLists.txt, and (b) hot
                     engine code performs scalar floating-point
                     reductions through the kernels:: API instead of
                     raw `acc +=` loops whose rounding order would be
                     invisible to the contract.

  error-discipline   library code reports failure only through
                     kibamrm::Error-derived types: no `throw std::...`,
                     and no `catch (...)` that swallows the exception
                     without rethrowing or recording it
                     (std::current_exception).

  layering           linalg/ and markov/ are the layers engine/ and core/
                     build on; nothing under them may include
                     kibamrm/engine/ or kibamrm/core/, so a lower layer
                     never depends on the layers above it.

Suppression: a finding is silenced by an annotation on the same line or
the line directly above:

    // kibamrm-lint: allow(<check>) <non-empty justification>

The justification is mandatory; an allow() without one is itself a
finding.  This mirrors the thread-safety layer's rule that unguarded
shared state carries its reasoning at the declaration.

Implementation: a token-level scanner (comments and string literals are
stripped before matching, so prose like "rand()" in a comment never
fires).  When the libclang python bindings are importable, the
error-discipline check additionally refines `throw` classification
through the AST; any libclang failure silently falls back to the token
result, so environments without it (or with a broken install) see
identical gating behaviour.

Exit codes: 0 clean, 1 findings, 2 internal/usage error.
Self-test: `kibamrm_lint.py --self-test` runs every check against the
seeded-violation fixtures in tools/lint/fixtures/ and verifies each
expected finding fires and nothing unexpected does.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CHECKS = ("determinism", "reduction-contract", "error-discipline",
          "layering")

# Directories (relative to the repo root) whose sources feed results.
RESULT_PATH_DIRS = ("src/kibamrm/engine", "src/kibamrm/linalg",
                    "src/kibamrm/markov")
LIBRARY_DIR = "src/kibamrm"
# Lower layers and the layers above them they must not include.
LOWER_LAYER_DIRS = ("src/kibamrm/linalg", "src/kibamrm/markov")
UPPER_LAYERS = ("engine", "core")

ALLOW_RE = re.compile(
    r"//\s*kibamrm-lint:\s*allow\(([a-z-]+)\)\s*(.*)$")


class Finding:
    def __init__(self, check: str, path: Path, line: int, message: str):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure
    (and the kibamrm-lint control comments, which must stay visible)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            end = n if end < 0 else end
            comment = text[i:end]
            if "kibamrm-lint:" in comment:
                out.append(comment)
            else:
                out.append(" " * (end - i))
            i = end
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allow_table(lines: list[str]) -> dict[int, tuple[str, str, int]]:
    """Maps 1-based line numbers covered by an allow annotation to
    (check, justification, annotation line)."""
    table = {}
    for idx, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        check, reason = m.group(1), m.group(2).strip()
        # Covers its own line and the next (annotation-above style).
        table[idx] = (check, reason, idx)
        table[idx + 1] = (check, reason, idx)
    return table


def suppressed(findings: list[Finding], check: str, lines: list[str],
               path: Path, line_no: int, message: str) -> None:
    """Records the finding unless an allow(<check>) annotation covers it;
    an allow with an empty justification is converted into a finding."""
    allows = allow_table(lines)
    entry = allows.get(line_no)
    if entry and entry[0] == check:
        if not entry[1]:
            findings.append(Finding(
                check, path, entry[2],
                "allow() annotation requires a justification"))
        return
    findings.append(Finding(check, path, line_no, message))


# ------------------------------------------------------------ determinism

UNSEEDED_RANDOM_RE = re.compile(
    r"\bstd::random_device\b|\brandom_device\b|\bstd::rand\b|\brand\s*\(|"
    r"\bsrand\s*\(|\bd?rand48\s*\(|\blrand48\s*\(|\brandom_shuffle\b|"
    r"\bstd::mt19937(_64)?\b|\bdefault_random_engine\b")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*[&*]?\s*(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*([^)]+)\)")


def check_determinism(path: Path, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.split("\n")
    unordered_names = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        unordered_names.add(m.group(1))
    for idx, line in enumerate(lines, start=1):
        if UNSEEDED_RANDOM_RE.search(line):
            suppressed(findings, "determinism", lines, path, idx,
                       "unseeded/system randomness in a result path; "
                       "derive seeded streams from common/random")
        m = RANGE_FOR_RE.search(line)
        if m:
            range_expr = m.group(1).strip()
            head = re.split(r"[.\[(]", range_expr, 1)[0].strip("&* \t")
            if head in unordered_names or "unordered_" in range_expr:
                suppressed(findings, "determinism", lines, path, idx,
                           "iteration over an unordered container feeds "
                           "a result path (hash order is not stable)")
        for name in unordered_names:
            # .begin() starts an iteration; .end() alone is the
            # order-independent found/not-found comparison idiom.
            if re.search(rf"\b{re.escape(name)}\s*\.\s*c?r?begin\s*\(",
                         line):
                suppressed(findings, "determinism", lines, path, idx,
                           f"explicit iteration over unordered container "
                           f"'{name}' (hash order is not stable)")
    return findings


# ------------------------------------------------------ reduction contract

CONTRACT_MARKER_RE = re.compile(
    r"\bkBlockDoubles\b|\breduce_pairwise\b|\bdot_blocks\b|multiply_fused")
ACCUM_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*=\s*0(?:\.0*)?\s*;")
FFP_OFF = "-ffp-contract=off"


def cmake_pinned_sources(cmake_text: str) -> set[str]:
    """File names granted -ffp-contract=off in CMakeLists.txt: entries of
    list variables later pinned via set_source_files_properties, plus
    files named directly in a pinning call."""
    pinned: set[str] = set()
    lists: dict[str, list[str]] = {}
    for m in re.finditer(r"set\(\s*(\w+)([^)]*)\)", cmake_text):
        lists[m.group(1)] = re.findall(r"[\w/.+-]+\.cpp", m.group(2))
    for m in re.finditer(
            r"set_source_files_properties\(([^)]*?)PROPERTIES(.*?)\)",
            cmake_text, re.DOTALL):
        subjects, props = m.group(1), m.group(2)
        if FFP_OFF not in props:
            continue
        pinned.update(re.findall(r"[\w/.+-]+\.cpp", subjects))
        for var in re.findall(r"\$\{(\w+)\}", subjects):
            pinned.update(lists.get(var, []))
    return pinned


def check_reduction_contract_cmake(repo: Path) -> list[Finding]:
    findings: list[Finding] = []
    cmake_path = repo / "CMakeLists.txt"
    if not cmake_path.is_file():
        return [Finding("reduction-contract", cmake_path, 1,
                        "CMakeLists.txt not found; cannot verify the "
                        "-ffp-contract=off pinning of the contract TUs")]
    pinned = cmake_pinned_sources(cmake_path.read_text())
    pinned_names = {Path(p).name for p in pinned}
    linalg = repo / "src/kibamrm/linalg"
    for source in sorted(linalg.glob("*.cpp")) if linalg.is_dir() else []:
        stripped = strip_comments_and_strings(source.read_text())
        if not CONTRACT_MARKER_RE.search(stripped):
            continue
        if source.name not in pinned_names:
            findings.append(Finding(
                "reduction-contract", source, 1,
                f"{source.name} implements contract kernels (matches "
                f"{CONTRACT_MARKER_RE.pattern!r}) but CMakeLists.txt does "
                f"not pin it with {FFP_OFF}; an FMA-contracting build "
                f"would break the bitwise reduction contract"))
    return findings


def check_reduction_contract_source(path: Path, text: str) -> list[Finding]:
    """Raw scalar floating accumulation loops in engine/ sources."""
    findings: list[Finding] = []
    lines = text.split("\n")
    accumulators: dict[str, int] = {}
    for idx, line in enumerate(lines, start=1):
        for m in ACCUM_DECL_RE.finditer(line):
            accumulators[m.group(1)] = idx
    if not accumulators:
        return findings
    for idx, line in enumerate(lines, start=1):
        m = re.match(r"\s*(\w+)\s*\+=", line)
        if not m or m.group(1) not in accumulators:
            continue
        suppressed(findings, "reduction-contract", lines, path, idx,
                   f"raw floating-point accumulation into "
                   f"'{m.group(1)}' (declared zero-initialised on line "
                   f"{accumulators[m.group(1)]}); scalar reductions in "
                   f"engine code must go through the kernels:: API so "
                   f"the rounding order stays inside the bitwise "
                   f"contract")
    return findings


# -------------------------------------------------------- error discipline

THROW_STD_RE = re.compile(r"\bthrow\s+(::)?std\s*::\s*\w+")
CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")


def catch_block(text: str, start: int) -> str:
    """Body of the catch whose 'catch' keyword starts at `start`."""
    brace = text.find("{", start)
    if brace < 0:
        return ""
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[brace:i + 1]
    return text[brace:]


def check_error_discipline(path: Path, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.split("\n")
    for m in THROW_STD_RE.finditer(text):
        line_no = text.count("\n", 0, m.start()) + 1
        suppressed(findings, "error-discipline", lines, path, line_no,
                   "library code throws a std:: exception type; throw a "
                   "kibamrm::Error subclass (or KIBAMRM_REQUIRE) so "
                   "callers can rely on one catchable hierarchy")
    for m in CATCH_ALL_RE.finditer(text):
        line_no = text.count("\n", 0, m.start()) + 1
        body = catch_block(text, m.start())
        rethrows = re.search(r"\bthrow\s*;", body) is not None
        records = "current_exception" in body
        if not rethrows and not records:
            suppressed(findings, "error-discipline", lines, path, line_no,
                       "catch (...) swallows the exception without "
                       "rethrowing (`throw;`) or recording it "
                       "(std::current_exception)")
    return findings


def refine_throws_with_libclang(repo: Path, path: Path,
                                findings: list[Finding]) -> list[Finding]:
    """Optional AST refinement: drops throw-std findings whose thrown type
    libclang proves derives from kibamrm::Error (a typedef/alias the token
    scan cannot see through).  Any failure keeps the token findings."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return findings
    try:
        index = cindex.Index.create()
        tu = index.parse(str(path),
                         args=[f"-I{repo / 'src'}", "-std=c++20"])

        def derives_from_error(type_decl) -> bool:
            seen = set()
            stack = [type_decl]
            while stack:
                decl = stack.pop()
                if decl is None or decl.hash in seen:
                    continue
                seen.add(decl.hash)
                if decl.spelling == "Error":
                    return True
                for child in decl.get_children():
                    if child.kind == cindex.CursorKind.CXX_BASE_SPECIFIER:
                        stack.append(child.type.get_declaration())
            return False

        safe_lines = set()
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind != cindex.CursorKind.CXX_THROW_EXPR:
                continue
            children = list(cursor.get_children())
            if not children:
                continue
            decl = children[0].type.get_canonical().get_declaration()
            if derives_from_error(decl):
                safe_lines.add(cursor.location.line)
        return [f for f in findings
                if not (f.check == "error-discipline"
                        and "std:: exception" in f.message
                        and f.line in safe_lines)]
    except Exception:
        return findings


# --------------------------------------------------------------- layering

INCLUDE_DIRECTIVE_RE = re.compile(r"\s*#\s*include\b")
INCLUDED_LAYER_RE = re.compile(r'\s*#\s*include\s*["<]kibamrm/(\w+)/')


def check_layering(path: Path, raw: str, text: str) -> list[Finding]:
    """Includes of an upper layer in a lower-layer source.  `text` is the
    stripped source, which says which lines are live directives; the path
    itself is a string literal, so it is read from `raw`."""
    findings: list[Finding] = []
    lines = text.split("\n")
    for idx, (line, raw_line) in enumerate(zip(lines, raw.split("\n")),
                                           start=1):
        if not INCLUDE_DIRECTIVE_RE.match(line):
            continue
        m = INCLUDED_LAYER_RE.match(raw_line)
        if m and m.group(1) in UPPER_LAYERS:
            suppressed(findings, "layering", lines, path, idx,
                       f"a lower layer includes kibamrm/{m.group(1)}/; "
                       f"linalg/ and markov/ must not depend on "
                       f"{' or '.join(UPPER_LAYERS)}")
    return findings


# ---------------------------------------------------------------- driver

def iter_sources(repo: Path, dirs: tuple[str, ...]):
    for rel in dirs:
        base = repo / rel
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
                yield path


def run_checks(repo: Path, selected: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    if "reduction-contract" in selected:
        findings.extend(check_reduction_contract_cmake(repo))
    for path in iter_sources(repo, RESULT_PATH_DIRS):
        text = strip_comments_and_strings(path.read_text())
        if "determinism" in selected:
            findings.extend(check_determinism(path, text))
        if ("reduction-contract" in selected
                and "src/kibamrm/engine" in path.as_posix()):
            findings.extend(check_reduction_contract_source(path, text))
    if "error-discipline" in selected:
        for path in iter_sources(repo, (LIBRARY_DIR,)):
            text = strip_comments_and_strings(path.read_text())
            file_findings = check_error_discipline(path, text)
            if file_findings:
                file_findings = refine_throws_with_libclang(
                    repo, path, file_findings)
            findings.extend(file_findings)
    if "layering" in selected:
        for path in iter_sources(repo, LOWER_LAYER_DIRS):
            raw = path.read_text()
            findings.extend(check_layering(
                path, raw, strip_comments_and_strings(raw)))
    return findings


# -------------------------------------------------------------- self-test

def self_test(repo: Path) -> int:
    """Runs every check over the seeded-violation fixture tree and
    verifies each expected finding fires (the check is live) and nothing
    unexpected does (the suppressions and clean files stay clean)."""
    fixtures = Path(__file__).resolve().parent / "fixtures"
    expected = {
        ("determinism", "src/kibamrm/markov/bad_rand.cpp", 10),
        ("determinism", "src/kibamrm/markov/bad_rand.cpp", 14),
        ("determinism", "src/kibamrm/linalg/bad_unordered.cpp", 13),
        ("determinism", "src/kibamrm/linalg/bad_unordered.cpp", 19),
        ("reduction-contract", "src/kibamrm/linalg/unpinned_kernels.cpp", 1),
        ("reduction-contract", "src/kibamrm/engine/bad_accum.cpp", 11),
        ("error-discipline", "src/kibamrm/battery/bad_throw.cpp", 8),
        ("error-discipline", "src/kibamrm/core/bad_swallow.cpp", 11),
        ("error-discipline", "src/kibamrm/core/bad_swallow.cpp", 30),
        ("layering", "src/kibamrm/markov/bad_layering.cpp", 6),
        ("layering", "src/kibamrm/markov/bad_layering.cpp", 7),
    }
    findings = run_checks(fixtures, set(CHECKS))
    actual = {(f.check, f.path.relative_to(fixtures).as_posix(), f.line)
              for f in findings}
    ok = True
    for item in sorted(expected - actual):
        print(f"self-test: MISSED expected finding {item}", file=sys.stderr)
        ok = False
    for item in sorted(actual - expected):
        print(f"self-test: UNEXPECTED finding {item}", file=sys.stderr)
        ok = False
    # The real tree must also parse without an internal error (findings
    # there are reported by the normal invocation, not the self-test).
    print(f"self-test: {len(expected)} seeded violations, "
          f"{len(actual & expected)} detected, "
          f"{len(actual - expected)} unexpected")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="kibamrm project-invariant linter")
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--check", action="append", choices=CHECKS,
                        help="run only the named check (repeatable; "
                             "default: all)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every check fires on the seeded "
                             "fixture violations")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for check in CHECKS:
            print(check)
        return 0
    if args.self_test:
        return self_test(args.repo)

    repo = args.repo.resolve()
    if not (repo / "src" / "kibamrm").is_dir():
        print(f"kibamrm-lint: {repo} does not look like the kibamrm repo "
              f"(no src/kibamrm)", file=sys.stderr)
        return 2
    selected = set(args.check) if args.check else set(CHECKS)
    findings = run_checks(repo, selected)
    for f in findings:
        try:
            shown = f.path.relative_to(repo)
        except ValueError:
            shown = f.path
        print(f"{shown}:{f.line}: [{f.check}] {f.message}")
    if findings:
        print(f"kibamrm-lint: {len(findings)} finding(s); suppress a "
              f"justified one with '// kibamrm-lint: allow(<check>) "
              f"<reason>'", file=sys.stderr)
        return 1
    print(f"kibamrm-lint: clean ({', '.join(sorted(selected))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
