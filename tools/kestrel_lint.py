#!/usr/bin/env python3
"""kestrel_lint: kernel-TU contract checks for the Kestrel tree.

Part 3 of Kestrel Sentry. Run from ctest / CI / scripts/check.sh:

    python3 tools/kestrel_lint.py --repo .        # lint the tree
    python3 tools/kestrel_lint.py --self-test     # prove the rules fire

Rules enforced
--------------
kernel-table-scalar
    Every format that registers a vector (avx/avx2/avx512) cell in
    KESTREL_KERNEL_TABLE (src/mat/kernels/registration.hpp) must also
    register a scalar cell: the scalar kernel is the differential oracle
    every vector kernel is tested against (tests/spmv_kernels_test.cpp).

kernel-table-tu
    Every table cell (fmt, isa) has a translation unit
    src/mat/kernels/<fmt>_<isa>.cpp that defines register_<fmt>_<isa>()
    and registers its kernels via KESTREL_REGISTER_KERNEL with the IsaTier
    token matching <isa> — and nothing else. Conversely, every
    <fmt>_<isa>.cpp on disk must be a table cell, so no kernel TU can be
    silently dropped from dispatch.

kernel-isa-flags
    Each table cell's TU is listed in the matching
    KESTREL_KERNEL_SOURCES_<ISA> list in src/CMakeLists.txt, whose
    COMPILE_OPTIONS carry the -m flags that ISA requires (avx: -mavx;
    avx2: -mavx2 -mfma; avx512: -mavx512f -mfma). Scalar TUs must not
    appear in any ISA list: the scalar baseline is compiled with default
    target flags by design (paper section 4).

aligned-load-provenance
    Aligned load/store intrinsics (_mm*_load_pd, _mm*_store_pd, ... —
    anything that faults on a misaligned pointer) may only be used on a
    line annotated `// kestrel-aligned: <why>` (same line or the line
    above), where <why> states the alignment provenance (an AlignedBuffer
    from base/aligned.hpp, alignas storage, ...). Unaligned *u variants
    need no annotation.

banned-construct
    Kernel TUs (src/mat/kernels/) must not use raw `new`: kernels operate
    on caller-owned views and must not allocate. `std::thread` is banned
    everywhere in src/ outside src/par/ and src/svc/ — data-parallel
    threading is the fabric's job, while the Bastion service layer owns
    its long-lived request workers (they block on a condition variable,
    so running them on the Flock pool would starve kernel dispatch). The
    hardware-query std::thread::hardware_concurrency and the identity
    type std::thread::id — Kestrel Scope keys per-thread span stacks on
    it — are allowed: neither spawns a thread. Calls to atoi, atol, atoll
    and atof (with or without std::) are banned everywhere in src/: they
    cannot report a malformed value ("3x" reads as 3, "abc" as 0), so a
    typo silently changes a setting. Parse with strtol/strtod and check
    the end pointer, as Options and env_number (base/options.hpp) do.

kernel-perf-reporting
    Every format in KESTREL_KERNEL_TABLE must report spmv flops and
    traffic bytes to Kestrel Scope: its format TU src/mat/<fmt>.cpp must
    invoke KESTREL_PROF_SPMV at the spmv entry point. Without it, the
    format's work is invisible to -log_view and the bytes-vs-model
    cross-check (tests/prof_test.cpp) cannot cover it. Utility kernel
    families that are not matrix formats (UTILITY_FORMATS, e.g. the
    gather-pack family) are exempt: they have no spmv entry point and
    their callers own the profiling.

abft-hook
    Every matrix format in KESTREL_KERNEL_TABLE must define its ABFT
    column-checksum hook: `abft_col_checksum` must appear in the format's
    own src/mat/<fmt>.cpp or src/mat/<fmt>.hpp. The Kestrel Aegis
    AbftMatrix wrapper (src/aegis/abft.cpp) builds c = A^T.1 through this
    hook from the format's *own* storage — a format that inherits another
    format's implementation would checksum the wrong value stream and
    either miss corruption or flag clean multiplies. Utility kernel
    families (UTILITY_FORMATS) are exempt: they are not matrix formats.

flock-pool-safety
    Every kernel family in KESTREL_KERNEL_TABLE must declare how the
    Kestrel Flock thread pool may partition its work: a
    `// flock-pool-safe: <granularity>` annotation with granularity in
    {row, slice, blockrow, panel, group8, element}. Matrix formats carry
    it in their own src/mat/<fmt>.cpp or .hpp (next to repartition());
    utility families (UTILITY_FORMATS) carry it in one of their kernel
    TUs. The granularity is the unit a partition boundary may NOT split
    — e.g. SELL slices (vector lanes span a slice) or csr_perm's
    width-8 vector chunks (group8: splitting one would move rows between
    the FMA path and the scalar remainder and change rounding). A new
    table entry without the declaration has never been audited for
    threaded execution and must not silently inherit pool dispatch.

kernel-op-scalar
    Every simd::Op registered from a kernel TU at a vector tier
    (kAvx/kAvx2/kAvx512) must also be registered at IsaTier::kScalar
    somewhere in src/mat/kernels/. kernel-table-scalar enforces this per
    *format*; this rule enforces it per *operation*, catching a new op
    (e.g. kGatherPack) added vector-only inside an existing format's TUs —
    including a format's fp32 twin (kCsrSpmvFp32, ...), whose vector entry
    points need a scalar fp32 registration of their own.
    The scalar registration is what guarantees dispatch never fails on a
    non-AVX host and gives the differential tests their oracle. The
    registration-table half of the contract (the TU itself must be a
    KESTREL_KERNEL_TABLE cell) is enforced by kernel-table-tu.

svc-structured-errors
    The Kestrel Bastion service layer (src/svc/) must not throw bare
    standard-library exceptions (`throw std::runtime_error(...)`, ...).
    Every decline the service makes is part of its API: admission control
    answers with RejectedError (queue depth + retry hint), budget declines
    with BudgetError (requested/in-use/limit bytes), contract violations
    with KESTREL_CHECK/KESTREL_FAIL. A bare std::* throw is a response a
    client cannot dispatch on — it collapses "shed, retry later" and
    "misconfigured, don't retry" into one opaque string.

prof-schema-version
    Profiler export paths must declare their schema version through the
    shared constant in src/prof/report.hpp (prof::kMetricsSchema). In
    src/, bench/ and examples/, (a) no code may hardcode a
    "kestrel-scope-metrics-..." string literal outside report.hpp, and
    (b) any line emitting a "schema" JSON key must reference
    kMetricsSchema on that line. Hardcoded copies are how a
    schema bump silently forks: one writer moves to -v2 while another
    keeps stamping -v1 over the new fields. Comments are exempt; tests
    are exempt (they pin exact strings on purpose).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from dataclasses import dataclass

KERNELS_DIR = os.path.join("src", "mat", "kernels")
REGISTRATION_HPP = os.path.join(KERNELS_DIR, "registration.hpp")
SRC_CMAKE = os.path.join("src", "CMakeLists.txt")

ISA_TIER_TOKEN = {
    "scalar": "kScalar",
    "avx": "kAvx",
    "avx2": "kAvx2",
    "avx512": "kAvx512",
}
ISA_REQUIRED_FLAGS = {
    "scalar": [],
    "avx": ["-mavx"],
    "avx2": ["-mavx2", "-mfma"],
    "avx512": ["-mavx512f", "-mfma"],
}

# A call to a C parse that cannot report a malformed value; a member such
# as ksp::Settings::atol (`settings_.atol`) is not a call to it.
C_PARSE_RE = re.compile(r"(?<![\w.>])(?:std::)?ato(?:i|l|ll|f)\s*\(")
ALIGNED_INTRIN_RE = re.compile(
    r"_mm\d*_(?:mask_|maskz_)?(?:load|store)_(?:pd|ps|sd|ss|si\d+|epi\d+|epu\d+)\b"
)
ALIGNED_ANNOTATION = "kestrel-aligned:"
PROF_SPMV_MACRO = "KESTREL_PROF_SPMV"
ABFT_HOOK = "abft_col_checksum"
# Kernel families in KESTREL_KERNEL_TABLE that are not matrix formats: no
# src/mat/<fmt>.cpp, no spmv entry point, profiling owned by the caller.
UTILITY_FORMATS = {"gather"}


VECTOR_TIER_TOKENS = {"kAvx", "kAvx2", "kAvx512"}
TABLE_CELL_RE = re.compile(r"^\s*X\((\w+),\s*(\w+)\)", re.MULTILINE)
REGISTER_MACRO_RE = re.compile(r"KESTREL_REGISTER_KERNEL\(\s*(\w+)\s*,\s*(\w+)")
KERNEL_TU_RE = re.compile(r"^(\w+?)_(scalar|avx|avx2|avx512)\.cpp$")
# Kestrel Argus: every kernel TU must carry the machine-checked contract
# header that tools/argus/argus.py analyzes (see DESIGN.md §10).
ARGUS_CONTRACT_RE = re.compile(
    r"^\s*//\s*argus-contract:\s*format=\w+\s+isa=\w+\s*$", re.MULTILINE)
ARGUS_KERNEL_RE = re.compile(r"^\s*//\s*argus-kernel:\s*\w+", re.MULTILINE)


@dataclass
class Violation:
    rule: str
    path: str
    line: int  # 1-based; 0 when the finding is file- or tree-level
    message: str

    def __str__(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out //, /* */ comments and (unless keep_strings) string
    literals, preserving line structure so reported line numbers stay
    valid. keep_strings=True keeps literal contents verbatim — used by
    rules that inspect what the code *emits* (prof-schema-version)."""

    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
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
                state = "string"
                out.append('"' if keep_strings else " ")
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append("'" if keep_strings else " ")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            if keep_strings:
                out.append(ch)
            else:
                out.append("\n" if ch == "\n" else " ")
        i += 1
    return "".join(out)


def parse_kernel_table(repo: str):
    """Returns ([(fmt, isa)], violations) from registration.hpp."""
    path = os.path.join(repo, REGISTRATION_HPP)
    if not os.path.isfile(path):
        return [], [Violation("kernel-table-tu", REGISTRATION_HPP, 0,
                              "registration header not found")]
    cells = [(m.group(1), m.group(2))
             for m in TABLE_CELL_RE.finditer(read_text(path))]
    if not cells:
        return [], [Violation("kernel-table-tu", REGISTRATION_HPP, 0,
                              "no X(format, isa) cells found in "
                              "KESTREL_KERNEL_TABLE")]
    return cells, []


def parse_cmake_kernel_lists(repo: str):
    """Returns ({ISA: [tu basename]}, {ISA: [flags]}) from src/CMakeLists.txt."""
    path = os.path.join(repo, SRC_CMAKE)
    sources: dict[str, list[str]] = {}
    flags: dict[str, list[str]] = {}
    if not os.path.isfile(path):
        return sources, flags
    text = read_text(path)
    for m in re.finditer(r"set\(KESTREL_KERNEL_SOURCES_(\w+)([^)]*)\)", text):
        isa = m.group(1).lower()
        sources[isa] = re.findall(r"mat/kernels/(\w+\.cpp)", m.group(2))
    for m in re.finditer(
            r"set_source_files_properties\(\$\{KESTREL_KERNEL_SOURCES_(\w+)\}"
            r".*?COMPILE_OPTIONS\s*\n?\s*\"([^\"]*)\"", text, re.DOTALL):
        isa = m.group(1).lower()
        flags[isa] = [f for f in re.split(r"[;\s]+", m.group(2)) if f]
    return sources, flags


def check_kernel_table(repo: str) -> list[Violation]:
    cells, violations = parse_kernel_table(repo)
    if not cells:
        return violations
    formats: dict[str, set[str]] = {}
    for fmt, isa in cells:
        if isa not in ISA_TIER_TOKEN:
            violations.append(Violation(
                "kernel-table-tu", REGISTRATION_HPP, 0,
                f"cell ({fmt}, {isa}): unknown ISA "
                f"(expected {'|'.join(ISA_TIER_TOKEN)})"))
            continue
        formats.setdefault(fmt, set()).add(isa)

    # Rule: every vector cell has a scalar counterpart.
    for fmt, isas in sorted(formats.items()):
        if "scalar" not in isas:
            violations.append(Violation(
                "kernel-table-scalar", REGISTRATION_HPP, 0,
                f"format '{fmt}' registers {sorted(isas)} but no scalar "
                f"cell — every vector kernel needs its scalar oracle"))

    # Rule: every cell has a conforming TU.
    for fmt, isa in cells:
        if isa not in ISA_TIER_TOKEN:
            continue
        tu_rel = os.path.join(KERNELS_DIR, f"{fmt}_{isa}.cpp")
        tu_path = os.path.join(repo, tu_rel)
        if not os.path.isfile(tu_path):
            violations.append(Violation(
                "kernel-table-tu", tu_rel, 0,
                f"table cell ({fmt}, {isa}) has no translation unit"))
            continue
        text = read_text(tu_path)
        entry = f"register_{fmt}_{isa}"
        if not re.search(rf"void\s+{entry}\s*\(", text):
            violations.append(Violation(
                "kernel-table-tu", tu_rel, 0,
                f"missing registration entry point {entry}()"))
        registered = REGISTER_MACRO_RE.findall(text)
        if not registered:
            violations.append(Violation(
                "kernel-table-tu", tu_rel, 0,
                "registers no kernels via KESTREL_REGISTER_KERNEL"))
        want_token = ISA_TIER_TOKEN[isa]
        for op, tier in registered:
            if tier != want_token:
                violations.append(Violation(
                    "kernel-table-tu", tu_rel, 0,
                    f"registers {op} with IsaTier::{tier}, but this TU's "
                    f"table cell declares ISA '{isa}' "
                    f"(IsaTier::{want_token})"))

    # Rule: every kernel TU on disk is a table cell.
    kernels_dir = os.path.join(repo, KERNELS_DIR)
    if os.path.isdir(kernels_dir):
        for name in sorted(os.listdir(kernels_dir)):
            m = KERNEL_TU_RE.match(name)
            if not m:
                continue
            fmt, isa = None, None
            # "csr_perm_avx512.cpp" must split as (csr_perm, avx512): take
            # the last _<isa> suffix.
            stem = name[:-len(".cpp")]
            for cand in ISA_TIER_TOKEN:
                if stem.endswith("_" + cand):
                    fmt, isa = stem[:-(len(cand) + 1)], cand
            if fmt is None or (fmt, isa) in cells:
                continue
            violations.append(Violation(
                "kernel-table-tu", os.path.join(KERNELS_DIR, name), 0,
                f"kernel TU exists on disk but ({fmt}, {isa}) is not a "
                f"KESTREL_KERNEL_TABLE cell — it would never be dispatched"))
    return violations


def check_isa_flags(repo: str) -> list[Violation]:
    cells, _ = parse_kernel_table(repo)
    if not cells or not os.path.isfile(os.path.join(repo, SRC_CMAKE)):
        return []
    sources, flags = parse_cmake_kernel_lists(repo)
    violations = []
    for fmt, isa in cells:
        if isa not in ISA_TIER_TOKEN:
            continue
        tu = f"{fmt}_{isa}.cpp"
        listed_in = [l for l, names in sources.items() if tu in names]
        if isa not in listed_in:
            violations.append(Violation(
                "kernel-isa-flags", SRC_CMAKE, 0,
                f"{tu} is not in KESTREL_KERNEL_SOURCES_{isa.upper()} — it "
                f"would build without its ISA flags"))
            continue
        if isa == "scalar":
            others = [l for l in listed_in if l != "scalar"]
            if others:
                violations.append(Violation(
                    "kernel-isa-flags", SRC_CMAKE, 0,
                    f"{tu} is a scalar TU but also appears in "
                    f"{[f'KESTREL_KERNEL_SOURCES_{o.upper()}' for o in others]}"
                    f" — the scalar baseline must not get -m flags"))
            continue
        have = flags.get(isa, [])
        missing = [f for f in ISA_REQUIRED_FLAGS[isa] if f not in have]
        if missing:
            violations.append(Violation(
                "kernel-isa-flags", SRC_CMAKE, 0,
                f"KESTREL_KERNEL_SOURCES_{isa.upper()} COMPILE_OPTIONS "
                f"{have} lack required {missing} for {tu}"))
    return violations


def iter_source_files(root: str, exts=(".cpp", ".hpp")):
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


def check_aligned_loads(repo: str) -> list[Violation]:
    violations = []
    src = os.path.join(repo, "src")
    for path in iter_source_files(src):
        rel = os.path.relpath(path, repo)
        lines = read_text(path).splitlines()
        for lineno, line in enumerate(lines, start=1):
            m = ALIGNED_INTRIN_RE.search(line)
            if not m:
                continue
            prev = lines[lineno - 2] if lineno >= 2 else ""
            if ALIGNED_ANNOTATION in line or ALIGNED_ANNOTATION in prev:
                continue
            violations.append(Violation(
                "aligned-load-provenance", rel, lineno,
                f"{m.group(0)} requires an alignment-provenance annotation "
                f"('// {ALIGNED_ANNOTATION} <why>' on this or the previous "
                f"line), or use the unaligned *u variant"))
    return violations


def check_banned_constructs(repo: str) -> list[Violation]:
    violations = []
    src = os.path.join(repo, "src")
    kernels_prefix = KERNELS_DIR + os.sep
    # src/par/ is where threading lives; src/svc/ owns its long-lived
    # request workers (blocking them on the Flock pool would starve
    # kernel dispatch).
    thread_owner_prefixes = (os.path.join("src", "par") + os.sep,
                             os.path.join("src", "svc") + os.sep)
    for path in iter_source_files(src):
        rel = os.path.relpath(path, repo)
        code = strip_comments_and_strings(read_text(path))
        lines = code.splitlines()
        in_kernels = rel.startswith(kernels_prefix)
        in_par = rel.startswith(thread_owner_prefixes)
        for lineno, line in enumerate(lines, start=1):
            if in_kernels and re.search(r"\bnew\b", line):
                violations.append(Violation(
                    "banned-construct", rel, lineno,
                    "raw `new` in kernel code — kernels operate on "
                    "caller-owned views and must not allocate"))
            if not in_par and "std::thread" in line:
                if "hardware_concurrency" in line:
                    continue  # hardware query, spawns nothing
                if "std::thread::id" in line:
                    continue  # identity token, spawns nothing
                violations.append(Violation(
                    "banned-construct", rel, lineno,
                    "std::thread outside src/par/ — threading is the "
                    "fabric's job (kestrel::par)"))
            m = C_PARSE_RE.search(line)
            if m:
                violations.append(Violation(
                    "banned-construct", rel, lineno,
                    f"{m.group(0).rstrip('( ')} cannot report a malformed "
                    f"value — parse with strtol/strtod and check the end "
                    f"pointer (env_number in base/options.hpp)"))
    return violations


def check_kernel_perf_reporting(repo: str) -> list[Violation]:
    cells, _ = parse_kernel_table(repo)
    if not cells:
        return []
    violations = []
    homes = sorted({fmt for fmt, isa in cells if isa in ISA_TIER_TOKEN})
    for fmt in homes:
        if fmt in UTILITY_FORMATS:
            continue
        rel = os.path.join("src", "mat", f"{fmt}.cpp")
        path = os.path.join(repo, rel)
        if not os.path.isfile(path):
            violations.append(Violation(
                "kernel-perf-reporting", rel, 0,
                f"format '{fmt}' is a KESTREL_KERNEL_TABLE cell but has no "
                f"format TU src/mat/{fmt}.cpp to report spmv perf from"))
            continue
        if PROF_SPMV_MACRO not in read_text(path):
            violations.append(Violation(
                "kernel-perf-reporting", rel, 0,
                f"format '{fmt}' never calls {PROF_SPMV_MACRO} — its spmv "
                f"flops/bytes are invisible to -log_view and the "
                f"traffic-model cross-check"))
    return violations


def check_abft_hook(repo: str) -> list[Violation]:
    cells, _ = parse_kernel_table(repo)
    if not cells:
        return []
    violations = []
    for fmt in sorted({fmt for fmt, isa in cells if isa in ISA_TIER_TOKEN}):
        if fmt in UTILITY_FORMATS:
            continue
        candidates = [os.path.join("src", "mat", f"{fmt}.cpp"),
                      os.path.join("src", "mat", f"{fmt}.hpp")]
        present = [rel for rel in candidates
                   if os.path.isfile(os.path.join(repo, rel))]
        if not present:
            # kernel-perf-reporting already flags the missing format TU.
            continue
        if any(ABFT_HOOK in read_text(os.path.join(repo, rel))
               for rel in present):
            continue
        violations.append(Violation(
            "abft-hook", present[0], 0,
            f"format '{fmt}' never defines {ABFT_HOOK}() in its own "
            f"files — Kestrel Aegis cannot build the c = A^T.1 checksum "
            f"from this format's storage, so AbftMatrix('{fmt}') would "
            f"verify against the wrong value stream"))
    return violations


FLOCK_ANNOTATION_RE = re.compile(r"flock-pool-safe:\s*(\w+)")
FLOCK_GRANULARITIES = {"row", "slice", "blockrow", "panel", "group8",
                       "element"}


def check_flock_pool_safety(repo: str) -> list[Violation]:
    """Every kernel-table family must declare the partition granularity the
    Kestrel Flock pool may use (// flock-pool-safe: <granularity>). Matrix
    formats declare it in src/mat/<fmt>.{cpp,hpp}; utility families in one
    of their src/mat/kernels/<fmt>_*.cpp TUs."""
    cells, _ = parse_kernel_table(repo)
    if not cells:
        return []
    violations = []
    kernels_dir = os.path.join(repo, KERNELS_DIR)
    for fmt in sorted({fmt for fmt, isa in cells if isa in ISA_TIER_TOKEN}):
        if fmt in UTILITY_FORMATS:
            candidates = []
            if os.path.isdir(kernels_dir):
                for name in sorted(os.listdir(kernels_dir)):
                    m = KERNEL_TU_RE.match(name)
                    if m and m.group(1) == fmt:
                        candidates.append(os.path.join(KERNELS_DIR, name))
        else:
            candidates = [rel for rel in
                          (os.path.join("src", "mat", f"{fmt}.cpp"),
                           os.path.join("src", "mat", f"{fmt}.hpp"))
                          if os.path.isfile(os.path.join(repo, rel))]
        if not candidates:
            # kernel-perf-reporting / kernel-table-tu flag the missing TU.
            continue
        tokens = []
        for rel in candidates:
            tokens += FLOCK_ANNOTATION_RE.findall(
                read_text(os.path.join(repo, rel)))
        if not tokens:
            violations.append(Violation(
                "flock-pool-safety", candidates[0], 0,
                f"family '{fmt}' never declares '// flock-pool-safe: "
                f"<granularity>' in its own files — the Flock pool would "
                f"dispatch a kernel whose split-safety was never audited "
                f"(granularities: {', '.join(sorted(FLOCK_GRANULARITIES))})"))
            continue
        bad = sorted(set(tokens) - FLOCK_GRANULARITIES)
        if bad:
            violations.append(Violation(
                "flock-pool-safety", candidates[0], 0,
                f"family '{fmt}' declares unknown flock-pool-safe "
                f"granularity {bad} — use one of "
                f"{', '.join(sorted(FLOCK_GRANULARITIES))}"))
    return violations


def check_kernel_op_scalar(repo: str) -> list[Violation]:
    kernels_dir = os.path.join(repo, KERNELS_DIR)
    if not os.path.isdir(kernels_dir):
        return []
    op_tiers: dict[str, set[str]] = {}
    op_where: dict[str, str] = {}
    for name in sorted(os.listdir(kernels_dir)):
        if not name.endswith(".cpp"):
            continue
        rel = os.path.join(KERNELS_DIR, name)
        text = read_text(os.path.join(kernels_dir, name))
        for op, tier in REGISTER_MACRO_RE.findall(text):
            op_tiers.setdefault(op, set()).add(tier)
            op_where.setdefault(op, rel)
    violations = []
    for op, tiers in sorted(op_tiers.items()):
        if tiers & VECTOR_TIER_TOKENS and "kScalar" not in tiers:
            violations.append(Violation(
                "kernel-op-scalar", op_where[op], 0,
                f"simd::Op::{op} is registered at {sorted(tiers)} but never "
                f"at IsaTier::kScalar — every kernel family needs a scalar "
                f"counterpart (the dispatch fallback and the differential "
                f"oracle); register one from a <fmt>_scalar.cpp table TU"))
    return violations


def check_argus_contracts(repo: str) -> list[Violation]:
    """Every TU that registers a kernel must be analyzable by Kestrel Argus:
    a `// argus-contract: format=<f> isa=<i>` TU header plus at least one
    `// argus-kernel:` block. Without them the abstract interpreter skips
    the TU and its loads/stores are never proven in bounds."""
    kernels_dir = os.path.join(repo, KERNELS_DIR)
    if not os.path.isdir(kernels_dir):
        return []
    violations = []
    for name in sorted(os.listdir(kernels_dir)):
        if not name.endswith(".cpp"):
            continue
        rel = os.path.join(KERNELS_DIR, name)
        text = read_text(os.path.join(kernels_dir, name))
        if not REGISTER_MACRO_RE.search(text):
            continue
        if not ARGUS_CONTRACT_RE.search(text):
            violations.append(Violation(
                "argus-contract", rel, 0,
                "kernel TU has no parseable '// argus-contract: format=<f> "
                "isa=<i>' header — tools/argus/argus.py skips it, so its "
                "loads/stores are never proven in bounds (DESIGN.md §10)"))
        elif not ARGUS_KERNEL_RE.search(text):
            violations.append(Violation(
                "argus-contract", rel, 0,
                "kernel TU has an argus-contract header but no "
                "'// argus-kernel:' block — the registered kernels carry "
                "no param/extent contract for the abstract interpreter"))
    return violations


SVC_DIR = os.path.join("src", "svc")
SVC_BARE_THROW_RE = re.compile(r"\bthrow\s+(::)?std\s*::\s*\w+")


def check_svc_structured_errors(repo: str) -> list[Violation]:
    """src/svc/ may only throw the structured kestrel error types; a bare
    `throw std::*` is an API response clients cannot dispatch on."""
    violations = []
    svc_root = os.path.join(repo, SVC_DIR)
    if not os.path.isdir(svc_root):
        return violations
    for path in iter_source_files(svc_root):
        rel = os.path.relpath(path, repo)
        code = strip_comments_and_strings(read_text(path))
        for lineno, line in enumerate(code.splitlines(), start=1):
            m = SVC_BARE_THROW_RE.search(line)
            if m:
                violations.append(Violation(
                    "svc-structured-errors", rel, lineno,
                    f"bare '{m.group(0)}' in the service layer — throw a "
                    f"structured kestrel error (RejectedError, BudgetError, "
                    f"KESTREL_CHECK/KESTREL_FAIL) so clients can dispatch "
                    f"on the decline"))
    return violations


SCHEMA_PREFIX = "kestrel-scope-metrics-"
SCHEMA_CONSTANT = "kMetricsSchema"
SCHEMA_HOME = os.path.join("src", "prof", "report.hpp")
# A writer emitting the "schema" JSON key: the C++ source spells the quoted
# key as \"schema\" inside a string literal.
SCHEMA_KEY_EMIT = '\\"schema\\"'


def check_prof_schema_version(repo: str) -> list[Violation]:
    violations = []
    for top in ("src", "bench", "examples"):
        root = os.path.join(repo, top)
        if not os.path.isdir(root):
            continue
        for path in iter_source_files(root):
            rel = os.path.relpath(path, repo)
            if rel == SCHEMA_HOME:
                continue  # the constants' single definition site
            code = strip_comments_and_strings(read_text(path),
                                              keep_strings=True)
            for lineno, line in enumerate(code.splitlines(), start=1):
                if SCHEMA_PREFIX in line:
                    violations.append(Violation(
                        "prof-schema-version", rel, lineno,
                        f"hardcodes a '{SCHEMA_PREFIX}...' schema string — "
                        f"use prof::{SCHEMA_CONSTANT} from {SCHEMA_HOME} "
                        f"so every export path versions together"))
                elif SCHEMA_KEY_EMIT in line and SCHEMA_CONSTANT not in line:
                    violations.append(Violation(
                        "prof-schema-version", rel, lineno,
                        f"emits a \"schema\" JSON key without "
                        f"prof::{SCHEMA_CONSTANT} on the same line — the "
                        f"document's declared version can drift from the "
                        f"shared constant"))
    return violations


def lint(repo: str) -> list[Violation]:
    violations = []
    violations += check_kernel_table(repo)
    violations += check_isa_flags(repo)
    violations += check_aligned_loads(repo)
    violations += check_banned_constructs(repo)
    violations += check_kernel_perf_reporting(repo)
    violations += check_abft_hook(repo)
    violations += check_flock_pool_safety(repo)
    violations += check_kernel_op_scalar(repo)
    violations += check_argus_contracts(repo)
    violations += check_svc_structured_errors(repo)
    violations += check_prof_schema_version(repo)
    return violations


# ---------------------------------------------------------------------------
# Self-test: seed violations into fixture trees and assert each rule fires.
# ---------------------------------------------------------------------------

def _write(root: str, rel: str, content: str) -> None:
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


CLEAN_REGISTRATION = """#pragma once
#define KESTREL_KERNEL_TABLE(X) \\
  X(foo, scalar)                \\
  X(foo, avx512)
"""

CLEAN_SCALAR_TU = """
// argus-contract: format=foo isa=scalar
namespace k {
// argus-kernel: foo_spmv_scalar
void foo_spmv_scalar() {}
void register_foo_scalar() {
  KESTREL_REGISTER_KERNEL(kFooSpmv, kScalar, foo_spmv_scalar);
}
}
"""

CLEAN_AVX512_TU = """
// argus-contract: format=foo isa=avx512
namespace k {
// argus-kernel: foo_spmv_avx512
void foo_spmv_avx512(double* p) {
  // kestrel-aligned: p comes from AlignedBuffer<double, 64> (aligned.hpp)
  _mm512_load_pd(p);
}
void register_foo_avx512() {
  KESTREL_REGISTER_KERNEL(kFooSpmv, kAvx512, foo_spmv_avx512);
}
}
"""

CLEAN_FORMAT_TU = """
// flock-pool-safe: row
namespace k {
void Foo_spmv(const double* x, double* y) {
  KESTREL_PROF_SPMV("MatMult(foo)", 2 * nnz(), spmv_traffic_bytes());
  (void)x; (void)y;
}
void Foo_abft_col_checksum(double* c) { (void)c; }
}
"""

CLEAN_CMAKE = """
set(KESTREL_KERNEL_SOURCES_SCALAR
  mat/kernels/foo_scalar.cpp)
set(KESTREL_KERNEL_SOURCES_AVX512
  mat/kernels/foo_avx512.cpp)
set_source_files_properties(${KESTREL_KERNEL_SOURCES_AVX512}
  PROPERTIES COMPILE_OPTIONS
  "-mavx512f;-mavx512dq;-mavx512vl;-mavx512bw;-mfma")
"""


def _make_clean_fixture(root: str) -> None:
    _write(root, REGISTRATION_HPP, CLEAN_REGISTRATION)
    _write(root, os.path.join(KERNELS_DIR, "foo_scalar.cpp"), CLEAN_SCALAR_TU)
    _write(root, os.path.join(KERNELS_DIR, "foo_avx512.cpp"), CLEAN_AVX512_TU)
    _write(root, os.path.join("src", "mat", "foo.cpp"), CLEAN_FORMAT_TU)
    _write(root, SRC_CMAKE, CLEAN_CMAKE)


def self_test() -> int:
    failures = []

    def expect(name: str, rules_found: set, rule: str, present: bool) -> None:
        ok = (rule in rules_found) == present
        verb = "fired" if present else "stayed quiet"
        if not ok:
            failures.append(
                f"{name}: expected rule '{rule}' to have {verb}; "
                f"rules found: {sorted(rules_found)}")

    with tempfile.TemporaryDirectory(prefix="kestrel_lint_selftest_") as tmp:
        # 0. A clean, consistent fixture produces no violations at all.
        clean = os.path.join(tmp, "clean")
        _make_clean_fixture(clean)
        got = lint(clean)
        if got:
            failures.append("clean fixture should pass, got:\n  " +
                            "\n  ".join(str(v) for v in got))

        # 1. Vector cell without a scalar counterpart.
        fx = os.path.join(tmp, "no_scalar")
        _make_clean_fixture(fx)
        _write(fx, REGISTRATION_HPP,
               "#define KESTREL_KERNEL_TABLE(X) \\\n  X(foo, avx512)\n")
        expect("no_scalar", {v.rule for v in lint(fx)},
               "kernel-table-scalar", True)

        # 2. Kernel TU on disk that is not a table cell.
        fx = os.path.join(tmp, "unregistered_tu")
        _make_clean_fixture(fx)
        _write(fx, os.path.join(KERNELS_DIR, "bar_avx2.cpp"),
               "void register_bar_avx2() {}\n")
        expect("unregistered_tu", {v.rule for v in lint(fx)},
               "kernel-table-tu", True)

        # 3. TU registering a tier that contradicts its filename/flags.
        fx = os.path.join(tmp, "tier_mismatch")
        _make_clean_fixture(fx)
        _write(fx, os.path.join(KERNELS_DIR, "foo_avx512.cpp"),
               CLEAN_AVX512_TU.replace("kAvx512,", "kAvx2,"))
        expect("tier_mismatch", {v.rule for v in lint(fx)},
               "kernel-table-tu", True)

        # 4. ISA source list missing the required -m flags.
        fx = os.path.join(tmp, "missing_flags")
        _make_clean_fixture(fx)
        _write(fx, SRC_CMAKE, CLEAN_CMAKE.replace("-mavx512f;", ""))
        expect("missing_flags", {v.rule for v in lint(fx)},
               "kernel-isa-flags", True)

        # 5. Aligned load without a provenance annotation.
        fx = os.path.join(tmp, "unannotated_load")
        _make_clean_fixture(fx)
        _write(fx, os.path.join(KERNELS_DIR, "foo_avx512.cpp"),
               CLEAN_AVX512_TU.replace(
                   "  // kestrel-aligned: p comes from AlignedBuffer"
                   "<double, 64> (aligned.hpp)\n", ""))
        expect("unannotated_load", {v.rule for v in lint(fx)},
               "aligned-load-provenance", True)

        # 6. Raw new in kernel code; std::thread outside par/.
        fx = os.path.join(tmp, "banned")
        _make_clean_fixture(fx)
        _write(fx, os.path.join(KERNELS_DIR, "foo_scalar.cpp"),
               CLEAN_SCALAR_TU + "\nvoid leak() { double* p = new double[8];"
                                 " (void)p; }\n")
        _write(fx, os.path.join("src", "mat", "rogue.cpp"),
               "#include <thread>\nvoid t() { std::thread x([]{}); "
               "x.join(); }\n")
        rules = {v.rule for v in lint(fx)}
        expect("banned", rules, "banned-construct", True)

        # 7. std::thread inside src/par/ (the fabric) and src/svc/ (the
        # service's request workers) and the hardware query are allowed.
        fx = os.path.join(tmp, "allowed_thread")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "par", "comm.cpp"),
               "#include <thread>\nvoid t() { std::thread x([]{}); "
               "x.join(); }\n")
        _write(fx, os.path.join("src", "svc", "workers.cpp"),
               "#include <thread>\nvoid w() { std::thread x([]{}); "
               "x.join(); }\n")
        _write(fx, os.path.join("src", "perf", "machine.cpp"),
               "#include <thread>\nunsigned n() "
               "{ return std::thread::hardware_concurrency(); }\n")
        _write(fx, os.path.join("src", "prof", "stacks.cpp"),
               "#include <map>\n#include <thread>\n"
               "std::map<std::thread::id, int> depth;\n")
        # A field named like a C parse is not a call to one.
        _write(fx, os.path.join("src", "ksp", "check.cpp"),
               "bool done(const Settings& settings_, double r) "
               "{ return r <= settings_.atol; }\n")
        expect("allowed_thread", {v.rule for v in lint(fx)},
               "banned-construct", False)

        # 7b. C parses that cannot report a malformed value, anywhere in
        # src/.
        fx = os.path.join(tmp, "c_parse")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "par", "pool.cpp"),
               "#include <cstdlib>\n"
               "long n() { return std::atol(std::getenv(\"THREADS\")); }\n")
        expect("c_parse", {v.rule for v in lint(fx)},
               "banned-construct", True)

        # 8. A table format whose TU never reports spmv flops/bytes.
        fx = os.path.join(tmp, "silent_format")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "mat", "foo.cpp"),
               CLEAN_FORMAT_TU.replace(
                   '  KESTREL_PROF_SPMV("MatMult(foo)", 2 * nnz(), '
                   'spmv_traffic_bytes());\n', ''))
        expect("silent_format", {v.rule for v in lint(fx)},
               "kernel-perf-reporting", True)

        # 9. A table format with no format TU at all.
        fx = os.path.join(tmp, "missing_format_tu")
        _make_clean_fixture(fx)
        os.remove(os.path.join(fx, "src", "mat", "foo.cpp"))
        expect("missing_format_tu", {v.rule for v in lint(fx)},
               "kernel-perf-reporting", True)

        # 10. Talon wired up as vector-only: its AVX-512 cell exists but
        # the scalar oracle cell is missing.
        fx = os.path.join(tmp, "talon_no_scalar")
        _make_clean_fixture(fx)
        _write(fx, REGISTRATION_HPP,
               CLEAN_REGISTRATION.rstrip("\n") +
               "                \\\n  X(talon, avx512)\n")
        expect("talon_no_scalar", {v.rule for v in lint(fx)},
               "kernel-table-scalar", True)

        # 11. Talon format TU that never calls KESTREL_PROF_SPMV.
        fx = os.path.join(tmp, "talon_silent_format")
        _make_clean_fixture(fx)
        _write(fx, REGISTRATION_HPP,
               CLEAN_REGISTRATION.rstrip("\n") +
               "                \\\n  X(talon, scalar)\n")
        _write(fx, os.path.join(KERNELS_DIR, "talon_scalar.cpp"),
               CLEAN_SCALAR_TU.replace("foo", "talon")
                              .replace("kFooSpmv", "kTalonSpmv"))
        _write(fx, os.path.join("src", "mat", "talon.cpp"),
               "namespace k {\n"
               "void Talon_spmv(const double* x, double* y) "
               "{ (void)x; (void)y; }\n"
               "}\n")
        expect("talon_silent_format", {v.rule for v in lint(fx)},
               "kernel-perf-reporting", True)

        # 11b. A table format whose own files never define the ABFT
        # column-checksum hook.
        fx = os.path.join(tmp, "no_abft_hook")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "mat", "foo.cpp"),
               CLEAN_FORMAT_TU.replace(
                   "void Foo_abft_col_checksum(double* c) { (void)c; }\n",
                   ""))
        rules = {v.rule for v in lint(fx)}
        expect("no_abft_hook", rules, "abft-hook", True)
        expect("no_abft_hook", rules, "kernel-perf-reporting", False)

        # 11c. The hook may live in the format header instead of the TU.
        fx = os.path.join(tmp, "abft_hook_in_header")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "mat", "foo.cpp"),
               CLEAN_FORMAT_TU.replace(
                   "void Foo_abft_col_checksum(double* c) { (void)c; }\n",
                   ""))
        _write(fx, os.path.join("src", "mat", "foo.hpp"),
               "#pragma once\nvoid abft_col_checksum(double* c);\n")
        expect("abft_hook_in_header", {v.rule for v in lint(fx)},
               "abft-hook", False)

        # Shared scaffolding for the gather-pack fixtures: table cells,
        # CMake lists and TUs for a utility (non-format) kernel family.
        gather_registration = (
            CLEAN_REGISTRATION.rstrip("\n") +
            "                \\\n  X(gather, scalar)             "
            "\\\n  X(gather, avx512)\n")
        gather_cmake = (
            CLEAN_CMAKE
            .replace("mat/kernels/foo_scalar.cpp)",
                     "mat/kernels/foo_scalar.cpp\n"
                     "  mat/kernels/gather_scalar.cpp)")
            .replace("mat/kernels/foo_avx512.cpp)",
                     "mat/kernels/foo_avx512.cpp\n"
                     "  mat/kernels/gather_avx512.cpp)"))
        gather_avx512_tu = (
            CLEAN_AVX512_TU.replace("foo_spmv_avx512", "gather_pack_avx512")
                           .replace("register_foo_avx512",
                                    "register_gather_avx512")
                           .replace("kFooSpmv", "kGatherPack")
            + "// flock-pool-safe: element\n")

        # 12. A new op added vector-only: gather_avx512.cpp registers
        # kGatherPack at kAvx512, but no TU registers it at kScalar (the
        # gather_scalar.cpp TU registers a different op). The format-level
        # kernel-table-scalar rule cannot see this; kernel-op-scalar must.
        fx = os.path.join(tmp, "gather_op_no_scalar")
        _make_clean_fixture(fx)
        _write(fx, REGISTRATION_HPP, gather_registration)
        _write(fx, SRC_CMAKE, gather_cmake)
        _write(fx, os.path.join(KERNELS_DIR, "gather_scalar.cpp"),
               CLEAN_SCALAR_TU.replace("foo_spmv_scalar",
                                       "gather_aux_scalar")
                              .replace("register_foo_scalar",
                                       "register_gather_scalar")
                              .replace("kFooSpmv", "kGatherAux"))
        _write(fx, os.path.join(KERNELS_DIR, "gather_avx512.cpp"),
               gather_avx512_tu)
        rules = {v.rule for v in lint(fx)}
        expect("gather_op_no_scalar", rules, "kernel-op-scalar", True)
        expect("gather_op_no_scalar", rules, "kernel-table-scalar", False)

        # 13. A complete gather-pack family (scalar + avx512 registering the
        # same op) is fully clean — in particular kernel-perf-reporting must
        # honor the UTILITY_FORMATS exemption (no src/mat/gather.cpp).
        fx = os.path.join(tmp, "gather_clean")
        _make_clean_fixture(fx)
        _write(fx, REGISTRATION_HPP, gather_registration)
        _write(fx, SRC_CMAKE, gather_cmake)
        _write(fx, os.path.join(KERNELS_DIR, "gather_scalar.cpp"),
               CLEAN_SCALAR_TU.replace("foo_spmv_scalar",
                                       "gather_pack_scalar")
                              .replace("register_foo_scalar",
                                       "register_gather_scalar")
                              .replace("kFooSpmv", "kGatherPack"))
        _write(fx, os.path.join(KERNELS_DIR, "gather_avx512.cpp"),
               gather_avx512_tu)
        got = lint(fx)
        if got:
            failures.append(
                "gather_clean fixture should pass, got:\n  " +
                "\n  ".join(str(v) for v in got))

        # 14. Kernel TU with no argus-contract header at all.
        fx = os.path.join(tmp, "no_argus_header")
        _make_clean_fixture(fx)
        _write(fx, os.path.join(KERNELS_DIR, "foo_scalar.cpp"),
               CLEAN_SCALAR_TU.replace(
                   "// argus-contract: format=foo isa=scalar\n", ""))
        expect("no_argus_header", {v.rule for v in lint(fx)},
               "argus-contract", True)

        # 15. TU header present but no per-kernel contract block.
        fx = os.path.join(tmp, "no_argus_kernel")
        _make_clean_fixture(fx)
        _write(fx, os.path.join(KERNELS_DIR, "foo_scalar.cpp"),
               CLEAN_SCALAR_TU.replace(
                   "// argus-kernel: foo_spmv_scalar\n", ""))
        expect("no_argus_kernel", {v.rule for v in lint(fx)},
               "argus-contract", True)

        # 16. A bench hardcoding the schema string instead of using the
        # shared constant.
        fx = os.path.join(tmp, "hardcoded_schema")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("bench", "bench_rogue.cpp"),
               '#include <ostream>\n'
               'void w(std::ostream& os) {\n'
               '  os << "{\\"schema\\":\\"kestrel-scope-metrics-v1\\"}";\n'
               '}\n')
        expect("hardcoded_schema", {v.rule for v in lint(fx)},
               "prof-schema-version", True)

        # 17. Emitting the "schema" key from a string the constant never
        # reaches (version drift), even without naming a concrete version.
        fx = os.path.join(tmp, "drifting_schema_key")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "prof", "rogue_writer.cpp"),
               '#include <ostream>\n'
               'void w(std::ostream& os, const char* v) {\n'
               '  os << "{\\"schema\\":\\"" << v << "\\"}";\n'
               '}\n')
        expect("drifting_schema_key", {v.rule for v in lint(fx)},
               "prof-schema-version", True)

        # 18. The blessed pattern stays quiet: key emitted together with
        # the constant, version literals only in comments and report.hpp.
        fx = os.path.join(tmp, "schema_via_constant")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "prof", "report.hpp"),
               '#pragma once\n'
               'inline constexpr const char* kMetricsSchema =\n'
               '    "kestrel-scope-metrics-v2";\n')
        _write(fx, os.path.join("src", "prof", "writer.cpp"),
               '#include <ostream>\n'
               '// artifact schema: kestrel-scope-metrics-v2 (see report.hpp)\n'
               'inline constexpr const char* kMetricsSchema = "";\n'
               'void w(std::ostream& os) {\n'
               '  os << "{\\"schema\\":\\"" << kMetricsSchema << "\\"}";\n'
               '}\n')
        expect("schema_via_constant", {v.rule for v in lint(fx)},
               "prof-schema-version", False)

        # 19. A table format whose own files never declare the Flock
        # partition granularity.
        fx = os.path.join(tmp, "no_flock_declaration")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "mat", "foo.cpp"),
               CLEAN_FORMAT_TU.replace("// flock-pool-safe: row\n", ""))
        rules = {v.rule for v in lint(fx)}
        expect("no_flock_declaration", rules, "flock-pool-safety", True)
        expect("no_flock_declaration", rules, "kernel-perf-reporting", False)

        # 20. A declaration with a granularity token outside the audited
        # vocabulary (typo'd or invented) must fire too.
        fx = os.path.join(tmp, "bad_flock_granularity")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "mat", "foo.cpp"),
               CLEAN_FORMAT_TU.replace("flock-pool-safe: row",
                                       "flock-pool-safe: column"))
        expect("bad_flock_granularity", {v.rule for v in lint(fx)},
               "flock-pool-safety", True)

        # 21. A utility family (no format TU) whose kernel TUs never carry
        # the declaration: the gather-clean scaffolding minus the
        # annotation in the avx512 TU.
        fx = os.path.join(tmp, "utility_no_flock")
        _make_clean_fixture(fx)
        _write(fx, REGISTRATION_HPP, gather_registration)
        _write(fx, SRC_CMAKE, gather_cmake)
        _write(fx, os.path.join(KERNELS_DIR, "gather_scalar.cpp"),
               CLEAN_SCALAR_TU.replace("foo_spmv_scalar",
                                       "gather_pack_scalar")
                              .replace("register_foo_scalar",
                                       "register_gather_scalar")
                              .replace("kFooSpmv", "kGatherPack"))
        _write(fx, os.path.join(KERNELS_DIR, "gather_avx512.cpp"),
               gather_avx512_tu.replace("// flock-pool-safe: element\n",
                                        ""))
        expect("utility_no_flock", {v.rule for v in lint(fx)},
               "flock-pool-safety", True)

        # 22. An fp32 twin registered vector-only: foo_avx512.cpp adds a
        # kFooSpmvFp32 entry point, but foo_scalar.cpp registers only the
        # double kFooSpmv. The format still has a scalar table cell, so
        # kernel-table-scalar is satisfied; kernel-op-scalar must fire, since
        # fp32 dispatch on a non-AVX host would find no kernel and the
        # differential sweep no oracle.
        fx = os.path.join(tmp, "fp32_no_scalar")
        _make_clean_fixture(fx)
        _write(fx, os.path.join(KERNELS_DIR, "foo_avx512.cpp"),
               CLEAN_AVX512_TU.replace(
                   "  KESTREL_REGISTER_KERNEL(kFooSpmv, kAvx512, "
                   "foo_spmv_avx512);\n",
                   "  KESTREL_REGISTER_KERNEL(kFooSpmv, kAvx512, "
                   "foo_spmv_avx512);\n"
                   "  KESTREL_REGISTER_KERNEL(kFooSpmvFp32, kAvx512, "
                   "foo_spmv_avx512);\n"))
        rules = {v.rule for v in lint(fx)}
        expect("fp32_no_scalar", rules, "kernel-op-scalar", True)
        expect("fp32_no_scalar", rules, "kernel-table-scalar", False)

        # 23. A bare std::* throw inside the service layer must fire: the
        # decline carries no structure a client could dispatch on.
        fx = os.path.join(tmp, "svc_bare_throw")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "svc", "rogue.cpp"),
               '#include <stdexcept>\n'
               'void submit_full() {\n'
               '  throw std::runtime_error("queue full");\n'
               '}\n')
        expect("svc_bare_throw", {v.rule for v in lint(fx)},
               "svc-structured-errors", True)

        # 24. Structured throws in src/svc/ stay quiet, as do std::* throws
        # outside the service layer (other layers own their own policy).
        fx = os.path.join(tmp, "svc_structured_throw")
        _make_clean_fixture(fx)
        _write(fx, os.path.join("src", "svc", "service.cpp"),
               '// a comment mentioning throw std::logic_error is fine\n'
               'void submit_full(int depth, double hint) {\n'
               '  throw RejectedError(depth, hint, "svc: queue full",\n'
               '                      __FILE__, __LINE__);\n'
               '}\n')
        _write(fx, os.path.join("src", "mat", "other_layer.cpp"),
               '#include <stdexcept>\n'
               'void boom() { throw std::runtime_error("not svc"); }\n')
        expect("svc_structured_throw", {v.rule for v in lint(fx)},
               "svc-structured-errors", False)

    if failures:
        print("kestrel_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("kestrel_lint self-test passed (28 fixtures).")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=".", help="repository root to lint")
    ap.add_argument("--self-test", action="store_true",
                    help="seed violations into fixtures and assert the "
                         "rules catch them")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    violations = lint(args.repo)
    if violations:
        print(f"kestrel_lint: {len(violations)} violation(s):",
              file=sys.stderr)
        for v in violations:
            print("  " + str(v), file=sys.stderr)
        return 1
    print("kestrel_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
