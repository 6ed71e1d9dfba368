//! `xtask` — the repo's source-level lint pass and line count (no
//! external deps).
//!
//! `cargo run -p xtask -- loc [ROOT]` prints the non-test line count of
//! the tree at `ROOT` (default: this repository): every line of the `.rs`
//! files under `crates/`, `src/` and `examples/`, leaving out `tests/`
//! directories, `#[cfg(test)]` regions and the files that a
//! `#[cfg(test)] mod name;` declaration pulls in. Point `ROOT` at another
//! checkout to count two commits with one rule.
//!
//! `cargo run -p xtask -- lint` scans every `.rs` file under `crates/`,
//! `shims/` and `src/` and enforces invariants the compiler can't —
//! the hand-written rules behind the tree's determinism and memory-safety
//! claims:
//!
//! * **`unsafe-outside-shims`** — `unsafe` code may exist only under
//!   `shims/`, and every occurrence there must carry a `// SAFETY:`
//!   comment in the line-comment block directly above it.
//! * **`thread-spawn`** — raw `std::thread::spawn` / `thread::Builder`
//!   is confined to the shims; everything else, the worker pool's
//!   workers included, spawns through the `crossbeam::sync::thread`
//!   facade so the model checker can see it.
//! * **`float-reduce`** — no ad-hoc `f64`/`f32` `.sum()` / sum-like
//!   `fold` outside the blessed fixed-chunk tree-reduction helpers in
//!   `crates/linalg/src/vector.rs`: ad-hoc reductions over par-chunk
//!   results reassociate and break bitwise digest parity. Serial,
//!   order-fixed folds are fine but must say so with a pragma.
//! * **`wall-clock`** — no `Instant::now` / `SystemTime` in
//!   digest-feeding crates (`crates/*` except the bench crate):
//!   wall-clock readings must never reach a digest.
//! * **`unbounded-retry`** — no bare `loop` in the fault-aware serving
//!   stack (`crates/serve`, `crates/check` non-test code): a retry
//!   around a faultable call must be bounded (a `for` over an attempt
//!   budget) so a permanently failed shard cannot wedge a worker.
//!   Queue-drain and other provably-terminating loops carry a reasoned
//!   pragma.
//! * **`adhoc-pool`** — `Pool::new(..)` / `Pool::default()` in
//!   `crates/cli`, `crates/core`, `crates/graph` and `crates/linalg` is
//!   confined to `crates/linalg/src/parallel.rs` (the dispatch layer
//!   itself): every other site takes the caller's `&Pool` or borrows one
//!   from `WorkerPool::linalg_pool()`, so the `&Pool` argument of a solve
//!   is the only thing that decides its thread count. A site that must
//!   build its own pool carries a reasoned pragma.
//! * **`fs-only-in-storage`** — `std::fs` is confined to
//!   `crates/storage/src/diskfile.rs` (the out-of-core tier) and the
//!   shims; everything else reaches bytes through `PageFile`/`PageStore`
//!   so checksums, accounting and fault injection cannot be bypassed.
//!   Non-serving sites with a legitimate need (the linter reading the
//!   tree, benches persisting artifacts) carry a reasoned pragma.
//! * **`forbid-unsafe`** — every `crates/*/src/lib.rs` carries
//!   `#![forbid(unsafe_code)]`.
//!
//! A finding is silenced by an explicit, reasoned pragma on the same
//! line or in the line-comment block directly above:
//! `// xtask:allow(<rule>): <why this is sound>`.
//! Pragmas with unknown rule names or missing reasons are themselves
//! violations. Test code (`#[cfg(test)]` regions, `tests/`, `benches/`,
//! `examples/`) is exempt from the determinism rules but not from the
//! `unsafe` rules.
//!
//! The scanner is AST-lite by design: comments and string literals are
//! stripped with a small state machine, then rules match on the
//! remaining code text per line. Obfuscated violations (e.g. renaming
//! `std::thread` on import) can evade it; clippy, rustdoc and review
//! cover that tail.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
// xtask:allow(fs-only-in-storage): the linter must read the tree it scans
use std::fs;
use std::path::{Path, PathBuf};

/// Every rule the pragma parser accepts.
const RULES: &[&str] = &[
    "unsafe-outside-shims",
    "thread-spawn",
    "float-reduce",
    "wall-clock",
    "unbounded-retry",
    "adhoc-pool",
    "fs-only-in-storage",
    "forbid-unsafe",
];

/// The blessed fixed-chunk tree-reduction helpers (deterministic at any
/// thread count); float reductions are expected to live here.
const BLESSED_FLOAT_FILE: &str = "crates/linalg/src/vector.rs";
/// Measurement-only crate: wall-clock readings are its whole point.
const BENCH_CRATE_PREFIX: &str = "crates/bench/";
/// The out-of-core tier — the one module allowed to touch `std::fs`.
const BLESSED_FS_FILE: &str = "crates/storage/src/diskfile.rs";
/// The crates whose non-test code may not construct `Pool` values.
const POOL_LINT_SCOPE: &[&str] = &[
    "crates/cli/",
    "crates/core/",
    "crates/graph/",
    "crates/linalg/",
];
/// The deterministic dispatch layer — the one file in the pool-lint
/// scope allowed to construct `Pool` values directly.
const BLESSED_POOL_FILE: &str = "crates/linalg/src/parallel.rs";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = repo_root();
            let (violations, files) = lint_tree(&root);
            if violations.is_empty() {
                println!("xtask lint: clean ({files} files scanned)");
            } else {
                for v in &violations {
                    eprintln!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
                }
                eprintln!(
                    "xtask lint: {} violation(s) in {files} files",
                    violations.len()
                );
                std::process::exit(1);
            }
        }
        Some("loc") if args.len() <= 2 => {
            let root = args.get(1).map_or_else(repo_root, PathBuf::from);
            let (lines, files) = count_loc(&root);
            println!(
                "xtask loc: {lines} non-test lines in {files} files under {}",
                root.display()
            );
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint | loc [ROOT]");
            std::process::exit(2);
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the repo root")
        .to_path_buf()
}

struct Violation {
    path: String,
    line: usize,
    rule: &'static str,
    message: String,
}

fn lint_tree(root: &Path) -> (Vec<Violation>, usize) {
    let mut files = Vec::new();
    for top in ["crates", "shims", "src"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut violations = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .expect("collected under root")
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("xtask lint: cannot read {rel}: {e}"));
        lint_file(&rel, &source, &mut violations);
    }
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    (violations, files.len())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != ".git" {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The non-test lines and counted files of the `.rs` files under `root`'s
/// `crates/`, `src/` and `examples/` (see the module docs for the rule).
fn count_loc(root: &Path) -> (usize, usize) {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.retain(|f| {
        !f.strip_prefix(root)
            .expect("collected under root")
            .components()
            .any(|c| c.as_os_str() == "tests")
    });
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let source = fs::read_to_string(&f)
                .unwrap_or_else(|e| panic!("xtask loc: cannot read {}: {e}", f.display()));
            (f, source)
        })
        .collect();
    let test_files: BTreeSet<PathBuf> = sources
        .iter()
        .flat_map(|(f, source)| test_module_files(f, source))
        .filter_map(|f| fs::canonicalize(f).ok())
        .collect();
    let mut lines = 0;
    let mut counted = 0;
    for (file, source) in &sources {
        if fs::canonicalize(file).is_ok_and(|f| test_files.contains(&f)) {
            continue;
        }
        let code = strip_comments_and_strings(source);
        let code: Vec<&str> = code.lines().collect();
        lines += test_regions(&code).iter().filter(|&&test| !test).count();
        counted += 1;
    }
    (lines, counted)
}

/// The candidate paths of every module file that `file` declares under
/// `#[cfg(test)]` without a body (`#[cfg(test)] mod name;`), honouring a
/// `#[path = "…"]` attribute between the two.
fn test_module_files(file: &Path, source: &str) -> Vec<PathBuf> {
    let raw: Vec<&str> = source.lines().collect();
    let code = strip_comments_and_strings(source);
    let code: Vec<&str> = code.lines().collect();
    let dir = file.parent().expect("a file has a parent directory");
    let mut found = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        if !line.contains("#[cfg(test)]") {
            continue;
        }
        // The attributed item ends at its first `;` or opens at its `{`.
        let Some(end) = (idx..code.len()).find(|&j| code[j].contains([';', '{'])) else {
            continue;
        };
        let item = code[end];
        let Some(name) = item
            .split_once("mod ")
            .and_then(|(_, rest)| rest.split_once(';'))
            .map(|(name, _)| name.trim())
            .filter(|name| !name.contains('{'))
        else {
            continue;
        };
        let path_attr = raw[idx..=end].iter().find_map(|l| {
            let (_, rest) = l.split_once("#[path = \"")?;
            rest.split_once('"').map(|(path, _)| path)
        });
        match path_attr {
            Some(path) => found.push(dir.join(path)),
            None => {
                // A `mod.rs`, `lib.rs` or `main.rs` owns its directory;
                // any other `stem.rs` owns `stem/`.
                let stem = file.file_stem().expect("an .rs file has a stem");
                let owner = if ["mod", "lib", "main"].iter().any(|s| stem == *s) {
                    dir.to_path_buf()
                } else {
                    dir.join(stem)
                };
                found.push(owner.join(format!("{name}.rs")));
                found.push(owner.join(name).join("mod.rs"));
            }
        }
    }
    found
}

fn lint_file(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let raw: Vec<&str> = source.lines().collect();
    let code = strip_comments_and_strings(source);
    let code: Vec<&str> = code.lines().collect();
    debug_assert_eq!(raw.len(), code.len(), "line mismatch in {rel}");
    let in_test = test_regions(&code);

    let in_shims = rel.starts_with("shims/");
    let in_test_tree = rel
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    let is_lib_rs = rel.starts_with("crates/") && rel.ends_with("/src/lib.rs");

    // forbid-unsafe: every implementation crate's lib.rs opts out of
    // unsafe entirely (the shims are the only unsafe boundary).
    if is_lib_rs && !source.contains("#![forbid(unsafe_code)]") {
        out.push(Violation {
            path: rel.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate lib.rs is missing #![forbid(unsafe_code)]".to_string(),
        });
    }

    for (idx, code_line) in code.iter().enumerate() {
        let line_no = idx + 1;
        let exempt_determinism = in_test_tree || in_test[idx];

        // Pragma hygiene: every xtask:allow comment must name a known
        // rule and give a reason (placeholders like `<rule>` in prose
        // and pragma-shaped string literals in code are not pragmas).
        for err in malformed_pragmas(raw[idx]) {
            out.push(Violation {
                path: rel.to_string(),
                line: line_no,
                rule: "forbid-unsafe", // pragma errors gate like hard errors
                message: err,
            });
        }

        if contains_word(code_line, "unsafe") {
            if !in_shims {
                out.push(Violation {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "unsafe-outside-shims",
                    message: "`unsafe` is confined to shims/ (everything else is \
                              #![forbid(unsafe_code)])"
                        .to_string(),
                });
            } else if !has_safety_comment(&raw, idx) {
                out.push(Violation {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "unsafe-outside-shims",
                    message: "`unsafe` without a `// SAFETY:` comment in the \
                              line-comment block directly above"
                        .to_string(),
                });
            }
        }

        if !in_shims && !exempt_determinism {
            let spawns = code_line.contains("std::thread::spawn")
                || code_line.contains("stdthread::spawn")
                || code_line.contains("thread::Builder");
            if spawns && !allowed(&raw, idx, "thread-spawn") {
                out.push(Violation {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "thread-spawn",
                    message: "raw OS-thread spawn outside shims/ — use the WorkerPool \
                              or the crossbeam::sync::thread facade"
                        .to_string(),
                });
            }
        }

        if !in_shims
            && rel != BLESSED_FLOAT_FILE
            && !exempt_determinism
            && is_float_reduce(code_line)
            && !allowed(&raw, idx, "float-reduce")
        {
            out.push(Violation {
                path: rel.to_string(),
                line: line_no,
                rule: "float-reduce",
                message: "ad-hoc float reduction outside the blessed fixed-chunk \
                          helpers (slpm_linalg::vector) — use dot/sum_kernel_chunked, \
                          or annotate why this fold is serial and order-fixed"
                    .to_string(),
            });
        }

        if (rel.starts_with("crates/serve/") || rel.starts_with("crates/check/"))
            && !exempt_determinism
            && contains_word(code_line, "loop")
            && !allowed(&raw, idx, "unbounded-retry")
        {
            out.push(Violation {
                path: rel.to_string(),
                line: line_no,
                rule: "unbounded-retry",
                message: "bare `loop` in the fault-aware serving stack — bound retries \
                          with an attempt budget (`for attempt in 0..max_attempts`), or \
                          annotate why this loop provably terminates"
                    .to_string(),
            });
        }

        if POOL_LINT_SCOPE.iter().any(|scope| rel.starts_with(scope))
            && rel != BLESSED_POOL_FILE
            && !exempt_determinism
            && is_adhoc_pool(code_line)
            && !allowed(&raw, idx, "adhoc-pool")
        {
            out.push(Violation {
                path: rel.to_string(),
                line: line_no,
                rule: "adhoc-pool",
                message: "ad-hoc Pool construction outside the dispatch layer — take \
                          the caller's `&Pool` (or borrow WorkerPool::linalg_pool), or \
                          annotate why this site must build its own pool"
                    .to_string(),
            });
        }

        if !in_shims
            && rel != BLESSED_FS_FILE
            && !exempt_determinism
            && code_line.contains("std::fs")
            && !allowed(&raw, idx, "fs-only-in-storage")
        {
            out.push(Violation {
                path: rel.to_string(),
                line: line_no,
                rule: "fs-only-in-storage",
                message: format!(
                    "filesystem access outside {BLESSED_FS_FILE} — go through \
                     PageFile/PageStore so checksums, accounting and fault \
                     injection stay on the path, or annotate why this site \
                     must touch the filesystem"
                ),
            });
        }

        if rel.starts_with("crates/") && !rel.starts_with(BENCH_CRATE_PREFIX) && !exempt_determinism
        {
            let clock = code_line.contains("Instant::now") || code_line.contains("SystemTime");
            if clock && !allowed(&raw, idx, "wall-clock") {
                out.push(Violation {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "wall-clock",
                    message: "wall-clock read in a digest-feeding crate — time must \
                              never influence results; annotate latency-only uses"
                        .to_string(),
                });
            }
        }
    }
}

/// Sum-like float reductions; max/min folds are order-insensitive over
/// the values the tree feeds them and stay exempt.
fn is_float_reduce(code_line: &str) -> bool {
    if code_line.contains(".sum::<f64>()") || code_line.contains(".sum::<f32>()") {
        return true;
    }
    let typed_sum = (code_line.contains(": f64") || code_line.contains(": f32"))
        && code_line.contains(".sum()");
    let sum_fold = (code_line.contains("fold(0.0") || code_line.contains("fold(0f64"))
        && !code_line.contains("max")
        && !code_line.contains("min");
    typed_sum || sum_fold
}

/// Ad-hoc pool construction: `Pool::new(` / `Pool::default()` at a word
/// boundary, so `WorkerPool::new(..)` (the blessed persistent pool) does
/// not match. `Pool::serial()` is always fine — it spawns nothing.
fn is_adhoc_pool(code_line: &str) -> bool {
    for pat in ["Pool::new(", "Pool::default()"] {
        let mut start = 0;
        while let Some(pos) = code_line[start..].find(pat) {
            let abs = start + pos;
            let before_ok = abs == 0
                || !code_line[..abs]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok {
                return true;
            }
            start = abs + pat.len();
        }
    }
    false
}

/// True when line `idx` (or the line-comment block directly above it)
/// carries a well-formed `xtask:allow(<rule>)` pragma — reasons often
/// wrap across lines, so the whole contiguous comment block counts.
fn allowed(raw: &[&str], idx: usize, rule: &str) -> bool {
    let needle = format!("xtask:allow({rule})");
    if raw[idx].contains(&needle) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = raw[i].trim_start();
        if !t.starts_with("//") {
            break;
        }
        if t.contains(&needle) {
            return true;
        }
    }
    false
}

/// Validate every pragma on a raw line; returns error messages.
fn malformed_pragmas(raw_line: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !raw_line.trim_start().starts_with("//") {
        return errs; // pragmas are comments; string literals are not
    }
    let mut rest = raw_line;
    while let Some(pos) = rest.find("xtask:allow(") {
        rest = &rest[pos + "xtask:allow(".len()..];
        let Some(close) = rest.find(')') else {
            errs.push("unterminated xtask:allow pragma".to_string());
            break;
        };
        let rule = &rest[..close];
        rest = &rest[close + 1..];
        if rule.contains('<') || rule.contains('{') {
            continue; // documentation placeholder, not a pragma
        }
        if !RULES.contains(&rule) {
            errs.push(format!(
                "unknown rule {rule:?} in xtask:allow pragma (known: {RULES:?})"
            ));
            continue;
        }
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            errs.push(format!(
                "xtask:allow({rule}) needs a reason: `// xtask:allow({rule}): why`"
            ));
        }
    }
    errs
}

/// True when the line-comment block directly above `idx` (or the line
/// itself) contains `SAFETY:`.
fn has_safety_comment(raw: &[&str], idx: usize) -> bool {
    if raw[idx].contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = raw[i].trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Word-boundary containment on stripped code text.
fn contains_word(code_line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code_line[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code_line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = after >= code_line.len()
            || !code_line[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// Mark each line inside a `#[cfg(test)]`-attributed brace block, and
/// the lines of an attributed item that ends at a `;` before any brace.
fn test_regions(code: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    // (depth the region closes at) for the innermost open test region.
    let mut region_close_depth: Option<i64> = None;
    for (idx, line) in code.iter().enumerate() {
        if region_close_depth.is_some() || pending_attr {
            flags[idx] = true;
        }
        if line.contains("#[cfg(test)]") {
            pending_attr = true;
            flags[idx] = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    if pending_attr && region_close_depth.is_none() {
                        region_close_depth = Some(depth);
                        pending_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_close_depth == Some(depth) {
                        region_close_depth = None;
                    }
                }
                ';' if region_close_depth.is_none() => pending_attr = false,
                _ => {}
            }
        }
    }
    flags
}

/// Replace comments and string/char literals with spaces, preserving
/// line structure, so rule patterns only see code. Handles nested block
/// comments, escapes, raw strings (`r"…"`, `r#"…"#`), and tells
/// lifetimes from char literals.
fn strip_comments_and_strings(source: &str) -> String {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        match c {
            '/' if bytes.get(i + 1).copied() == Some('/') => {
                while i < n && bytes[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1).copied() == Some('*') => {
                let mut depth = 1;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == '/' && bytes.get(i + 1).copied() == Some('*') {
                        depth += 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1).copied() == Some('/') {
                        depth -= 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else {
                        out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            'r' if bytes.get(i + 1).copied() == Some('"')
                || (bytes.get(i + 1).copied() == Some('#')) =>
            {
                // Possible raw string r"…" / r#"…"# (also br…, matched
                // via the 'b' arm falling through to here next round).
                let mut hashes = 0;
                while bytes.get(i + 1 + hashes) == Some(&'#') {
                    hashes += 1;
                }
                if bytes.get(i + 1 + hashes) == Some(&'"') {
                    out.push(' ');
                    i += 1;
                    for _ in 0..=hashes {
                        out.push(' ');
                        i += 1;
                    }
                    // Consume until `"` followed by `hashes` #s.
                    'raw: while i < n {
                        if bytes[i] == '"' {
                            let mut k = 1;
                            while k <= hashes && bytes.get(i + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes + 1 {
                                for _ in 0..k {
                                    out.push(' ');
                                    i += 1;
                                }
                                break 'raw;
                            }
                        }
                        out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            '"' => {
                out.push(' ');
                i += 1;
                while i < n {
                    if bytes[i] == '\\' {
                        out.push(' ');
                        i += 1;
                        if i < n {
                            out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                            i += 1;
                        }
                        continue;
                    }
                    if bytes[i] == '"' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            '\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a lifetime is never closed by a quote.
                let is_char = match bytes.get(i + 1).copied() {
                    Some('\\') => true,
                    Some(_) => bytes.get(i + 2).copied() == Some('\''),
                    None => false,
                };
                if is_char {
                    out.push(' ');
                    i += 1;
                    while i < n {
                        if bytes[i] == '\\' {
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                            continue;
                        }
                        if bytes[i] == '\'' {
                            out.push(' ');
                            i += 1;
                            break;
                        }
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings_keeping_lines() {
        let src =
            "let a = \"unsafe\"; // unsafe here\nlet b = 'x'; /* unsafe\nstill */ let c = 1;\n";
        let stripped = strip_comments_and_strings(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("let c = 1;"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let s = r#\"unsafe \" quote\"#; }";
        let stripped = strip_comments_and_strings(src);
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn test_region_tracking_covers_nested_braces() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { if true {} }\n}\nfn c() {}\n";
        let code: Vec<&str> = src.lines().collect();
        let flags = test_regions(&code);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_region_tracking_ends_at_a_braceless_item() {
        let src = "#[cfg(test)]\nmod helper;\nfn a() {\n}\n";
        let code: Vec<&str> = src.lines().collect();
        assert_eq!(test_regions(&code), vec![true, true, false, false]);
    }

    #[test]
    fn loc_leaves_out_test_regions_test_dirs_and_test_module_files() {
        let root = std::env::temp_dir().join(format!("xtask-loc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let files = [
            // 3 counted lines: `f`, the blank line and `pub mod m;`.
            (
                "crates/a/src/lib.rs",
                "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                 fn t() {}\n}\n#[cfg(test)]\nmod helper;\n#[cfg(test)]\n\
                 #[path = \"other.rs\"]\nmod renamed;\npub mod m;\n",
            ),
            // 2 counted lines; its child is a test file.
            (
                "crates/a/src/m.rs",
                "pub fn g() {\n}\n#[cfg(test)]\nmod child;\n",
            ),
            ("crates/a/src/m/child.rs", "fn c() {}\n"),
            ("crates/a/src/helper.rs", "fn h() {}\nfn i() {}\n"),
            ("crates/a/src/other.rs", "fn o() {}\n"),
            ("crates/a/tests/it.rs", "fn it() {}\n"),
            ("src/lib.rs", "pub use a;\n"),
            ("examples/e.rs", "fn main() {\n}\n"),
            ("shims/s/src/lib.rs", "fn s() {}\n"),
        ];
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let counted = count_loc(&root);
        fs::remove_dir_all(&root).unwrap();
        // lib.rs 3, m.rs 2, src 1, examples 2; four files counted.
        assert_eq!(counted, (8, 4));
    }

    #[test]
    fn float_reduce_patterns() {
        assert!(is_float_reduce("let s = xs.iter().sum::<f64>();"));
        assert!(is_float_reduce("let s: f64 = xs.iter().sum();"));
        assert!(is_float_reduce("xs.iter().fold(0.0, |a, b| a + b)"));
        assert!(!is_float_reduce("xs.iter().fold(0.0, f64::max)"));
        assert!(!is_float_reduce("let n: usize = xs.iter().sum();"));
    }

    #[test]
    fn pragma_validation() {
        assert!(malformed_pragmas("// xtask:allow(wall-clock): latency only").is_empty());
        assert!(!malformed_pragmas("// xtask:allow(wall-clock)").is_empty());
        assert!(!malformed_pragmas("// xtask:allow(no-such-rule): x").is_empty());
    }

    #[test]
    fn unbounded_retry_flags_bare_loops_in_the_serving_stack() {
        let bare = "fn drain() {\n    loop {\n        step();\n    }\n}\n";
        let mut v = Vec::new();
        lint_file("crates/serve/src/engine.rs", bare, &mut v);
        assert_eq!(
            v.len(),
            1,
            "expected exactly one finding: {:?}",
            v[0].message
        );
        assert_eq!(v[0].rule, "unbounded-retry");

        // A reasoned pragma on the line above silences it.
        let blessed = "fn drain() {\n    // xtask:allow(unbounded-retry): drains a \
                       bounded queue\n    loop {\n        step();\n    }\n}\n";
        let mut v = Vec::new();
        lint_file("crates/serve/src/engine.rs", blessed, &mut v);
        assert!(
            v.is_empty(),
            "pragma should silence: {:?}",
            v.first().map(|x| &x.message)
        );

        // Outside the serving stack the rule does not apply.
        let mut v = Vec::new();
        lint_file("crates/linalg/src/vector.rs", bare, &mut v);
        assert!(v.is_empty());

        // `for` over an attempt budget is the bounded idiom — clean.
        let bounded = "fn retry() {\n    for attempt in 0..max_attempts {\n        \
                       step(attempt);\n    }\n}\n";
        let mut v = Vec::new();
        lint_file("crates/serve/src/stream.rs", bounded, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn thread_spawn_is_confined_to_the_shims() {
        // No crate file is blessed: the pool spawns its workers through
        // the crossbeam::sync::thread facade like everything else.
        for raw in [
            "fn start() {\n    std::thread::spawn(work);\n}\n",
            "fn start() {\n    let h = std::thread::Builder::new().spawn(work);\n}\n",
        ] {
            for rel in ["crates/linalg/src/pool.rs", "crates/linalg/src/parallel.rs"] {
                let mut v = Vec::new();
                lint_file(rel, raw, &mut v);
                assert_eq!(v.len(), 1, "{rel}: expected exactly one finding: {v:?}");
                assert_eq!(v[0].rule, "thread-spawn");
            }
            // The shims implement the facade and may spawn OS threads.
            let mut v = Vec::new();
            lint_file("shims/crossbeam/src/model.rs", raw, &mut v);
            assert!(v.is_empty(), "false positive: {v:?}");
        }

        // The facade itself is the sanctioned spawn.
        let facade = "fn start() {\n    crossbeam::sync::thread::spawn(work);\n}\n";
        let mut v = Vec::new();
        lint_file("crates/linalg/src/pool.rs", facade, &mut v);
        assert!(v.is_empty(), "false positive: {v:?}");

        // A reasoned pragma silences a finding (the test watchdog's case).
        let blessed = "fn watch() {\n    // xtask:allow(thread-spawn): the watchdog must \
                       outlive a hung body\n    let w = std::thread::Builder::new();\n}\n";
        let mut v = Vec::new();
        lint_file("crates/serve/src/testing.rs", blessed, &mut v);
        assert!(
            v.is_empty(),
            "pragma should silence: {:?}",
            v.first().map(|x| &x.message)
        );
    }

    #[test]
    fn adhoc_pool_is_confined_to_the_dispatch_layer() {
        let bare = "fn solve() {\n    let pool = Pool::new(Some(4));\n}\n";
        let mut v = Vec::new();
        lint_file("crates/linalg/src/solver.rs", bare, &mut v);
        assert_eq!(v.len(), 1, "expected exactly one finding: {v:?}");
        assert_eq!(v[0].rule, "adhoc-pool");

        let default = "fn solve() {\n    let pool = Pool::default();\n}\n";
        let mut v = Vec::new();
        lint_file("crates/cli/src/commands.rs", default, &mut v);
        assert_eq!(v.len(), 1, "expected exactly one finding: {v:?}");
        assert_eq!(v[0].rule, "adhoc-pool");

        // The dispatch layer itself is blessed by path.
        let mut v = Vec::new();
        lint_file("crates/linalg/src/parallel.rs", bare, &mut v);
        assert!(v.is_empty());

        // WorkerPool::new is the persistent pool, not an ad-hoc one, and
        // Pool::serial spawns nothing.
        let fine = "fn run() {\n    let w = WorkerPool::new(4);\n    \
                    let s = Pool::serial();\n}\n";
        let mut v = Vec::new();
        lint_file("crates/cli/src/commands.rs", fine, &mut v);
        assert!(v.is_empty(), "false positive: {v:?}");

        // A reasoned pragma silences a finding.
        let blessed = "fn own() {\n    // xtask:allow(adhoc-pool): this site must \
                       build a one-shot pool\n    let pool = \
                       Pool::new(threads);\n}\n";
        let mut v = Vec::new();
        lint_file("crates/linalg/src/fiedler.rs", blessed, &mut v);
        assert!(
            v.is_empty(),
            "pragma should silence: {:?}",
            v.first().map(|x| &x.message)
        );

        // The graph and core crates are in scope too.
        for rel in [
            "crates/graph/src/coarsen.rs",
            "crates/core/src/recursive.rs",
        ] {
            let mut v = Vec::new();
            lint_file(rel, bare, &mut v);
            assert_eq!(v.len(), 1, "{rel}: expected exactly one finding: {v:?}");
            assert_eq!(v[0].rule, "adhoc-pool");
        }

        // Outside the pool-lint scope the rule does not apply.
        let mut v = Vec::new();
        lint_file("crates/querysim/src/mappings.rs", bare, &mut v);
        assert!(v.is_empty());

        // Test code may build throwaway pools freely.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { let p = Pool::new(Some(2)); }\n}\n";
        let mut v = Vec::new();
        lint_file("crates/linalg/src/pcg.rs", in_tests, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn fs_access_is_confined_to_the_storage_tier() {
        let bare = "fn save() {\n    std::fs::write(path, bytes).unwrap();\n}\n";
        let mut v = Vec::new();
        lint_file("crates/serve/src/engine.rs", bare, &mut v);
        assert_eq!(v.len(), 1, "expected exactly one finding: {v:?}");
        assert_eq!(v[0].rule, "fs-only-in-storage");

        // The out-of-core tier itself is blessed by path.
        let mut v = Vec::new();
        lint_file("crates/storage/src/diskfile.rs", bare, &mut v);
        assert!(v.is_empty());

        // A reasoned pragma silences a legitimate non-serving site.
        let blessed = "fn save() {\n    // xtask:allow(fs-only-in-storage): bench \
                       artifact\n    std::fs::write(path, bytes).unwrap();\n}\n";
        let mut v = Vec::new();
        lint_file("crates/bench/src/bin/serve_bench.rs", blessed, &mut v);
        assert!(
            v.is_empty(),
            "pragma should silence: {:?}",
            v.first().map(|x| &x.message)
        );

        // Test code keeps its temp-file freedom.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { \
                        std::fs::remove_file(p).unwrap(); }\n}\n";
        let mut v = Vec::new();
        lint_file("crates/serve/src/engine.rs", in_tests, &mut v);
        assert!(v.is_empty());
    }

    impl std::fmt::Debug for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            )
        }
    }

    #[test]
    fn full_tree_lint_is_clean() {
        // The repo's own gate, self-hosted as a unit test: the linter
        // must pass on the tree it ships in.
        let (violations, files) = lint_tree(&repo_root());
        let rendered: Vec<String> = violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
            .collect();
        assert!(
            violations.is_empty(),
            "xtask lint found violations:\n{}",
            rendered.join("\n")
        );
        assert!(files > 40, "suspiciously few files scanned: {files}");
    }
}
