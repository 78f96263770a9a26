//! The repo lint wall: hand-rolled line/token scanning enforcing the workspace's
//! concurrency-hygiene rules and keeping its public surface called (the workspace builds
//! offline, so no `syn`, no registry — the scanner works on raw source lines).
//!
//! # Rules
//!
//! | rule | what it defends |
//! |------|-----------------|
//! | `ordering-justified` | Every `Ordering::` site outside the shim crates carries an `// ordering:` comment stating the happens-before edge it provides (or why none is needed). The PR 6 quantile race survived review because the orderings *looked* routine; the comment forces the argument to be written down where the diff shows it. |
//! | `no-unsafe` | `unsafe` stays confined to the vendored shim crate (`crates/rand` — which currently also forbids it). Every first-party crate carries `#![forbid(unsafe_code)]`; the lint stops the attribute from being quietly dropped. |
//! | `no-sleep-sync` | `thread::sleep` in test code is almost always a hidden synchronization bug (sleeping until a racing thread "should" be done). Tests must synchronize on channels, joins, or the model checker. |
//! | `no-as-id-narrowing` | In `crates/serve/src/protocol.rs`, id values cross the trust boundary as `u64` and must never be narrowed with a raw `as` cast (silent truncation turned hostile ids into valid-looking ones before PR 4 added validation). Use `try_from` with explicit rejection. |
//! | `pub-has-caller` | A `pub fn` in a library or binary source (`crates/*/src`, outside the shim crates, before the first `#[cfg(test)]`) is named in the code of at least one *other* `.rs` file under `crates/`, `src/`, `tests/`, `examples/` or `perfbench/src`. Tests count as callers (reference adapters exist for them); a `pub use` re-export does not, since it names the fn without calling it. Public surface that nothing calls is dead weight that only a census finds; the rule finds it on the commit that orphans it. A name with callers in its own file only loses its `pub`. |
//!
//! # Allowlist format
//!
//! A violating line may carry a same-line trailing marker:
//!
//! ```text
//! some_code(); // lint: allow(rule-name) one-line reason
//! ```
//!
//! Allowlist entries are themselves counted and reported; CI runs the binary with
//! `--max-allow 0` so any new entry fails the build until the cap is consciously raised
//! in the workflow file (zero-growth policy).

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers, also the names used in `lint: allow(...)` markers.
pub const RULES: [&str; 5] =
    ["ordering-justified", "no-unsafe", "no-sleep-sync", "no-as-id-narrowing", "pub-has-caller"];

/// Crates whose sources are exempt from `ordering-justified`, `no-unsafe`,
/// `no-sleep-sync` and `pub-has-caller`: the model shims themselves (whose scanner must be
/// able to spell the patterns it scans for) and the vendored offline `rand` shim.
pub const SHIM_CRATES: [&str; 2] = ["crates/check", "crates/rand"];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.excerpt)
    }
}

/// Scan outcome for a file set: violations plus the allowlist entries that suppressed
/// others (counted so CI can enforce zero growth).
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Violations not covered by an allowlist marker.
    pub violations: Vec<Violation>,
    /// `(file, line, rule)` of every allowlist marker that actually suppressed a hit.
    pub allowed: Vec<(String, usize, &'static str)>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Strips the line-comment tail (`// ...`) from a source line, honoring string literals
/// well enough for this codebase (no raw strings containing `//` on lint-relevant lines).
fn code_part(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// The comment tail of a line (everything from `//`), if any.
fn comment_part(line: &str) -> Option<&str> {
    let code = code_part(line);
    if code.len() < line.len() {
        Some(&line[code.len()..])
    } else {
        None
    }
}

/// True if `line` carries an `// ordering:` justification, either as a trailing comment
/// or anywhere in the contiguous `//` comment block immediately above it (multi-line
/// justifications are the norm for the interesting sites).
fn has_ordering_justification(lines: &[&str], idx: usize) -> bool {
    if comment_part(lines[idx]).is_some_and(|c| c.contains("ordering:")) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let prev = lines[i].trim_start();
        if !prev.starts_with("//") {
            return false;
        }
        if prev.contains("ordering:") {
            return true;
        }
    }
    false
}

/// True if the line allows `rule` via a `lint: allow(rule)` marker.
fn has_allow(line: &str, rule: &str) -> bool {
    comment_part(line).is_some_and(|c| c.contains(&format!("lint: allow({rule})")))
}

/// Whether a word occurs in `code` at word boundaries (identifier characters on neither
/// side), so `unsafe_code` or `forbid(unsafe_code)` never match the `unsafe` token.
fn has_word(code: &str, word: &str) -> bool {
    let ident = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !ident(bytes[start - 1]);
        let right_ok = end == bytes.len() || !ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

/// True when `path` (repo-relative, `/`-separated) lies inside one of the shim crates.
fn in_shim_crate(path: &str) -> bool {
    SHIM_CRATES.iter().any(|c| path.starts_with(&format!("{c}/")))
}

/// True when `path` is test code for the purposes of `no-sleep-sync`: an integration
/// test, an example, or any file containing a `#[cfg(test)]` module.
fn is_test_code(path: &str, text: &str) -> bool {
    path.contains("/tests/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || text.contains("#[cfg(test)]")
}

/// Records a hit of `rule` on `line`: as an allowlist entry when the line carries the
/// rule's marker, as a violation otherwise.
fn record(report: &mut LintReport, path: &str, line_no: usize, rule: &'static str, line: &str) {
    if has_allow(line, rule) {
        report.allowed.push((path.to_string(), line_no, rule));
    } else {
        report.violations.push(Violation {
            file: path.to_string(),
            line: line_no,
            rule,
            excerpt: line.trim().to_string(),
        });
    }
}

/// Scans one file's text with the per-file rules. `path` must be repo-relative with `/`
/// separators.
fn scan_source(path: &str, text: &str, report: &mut LintReport) {
    report.files_scanned += 1;
    let lines: Vec<&str> = text.lines().collect();
    let shim = in_shim_crate(path);
    let test_code = is_test_code(path, text);
    let is_protocol = path == "crates/serve/src/protocol.rs";
    let push = |report: &mut LintReport, line_no: usize, rule: &'static str, line: &str| {
        record(report, path, line_no, rule, line)
    };
    for (i, &line) in lines.iter().enumerate() {
        let code = code_part(line);
        let line_no = i + 1;
        if !shim && code.contains("Ordering::") && !has_ordering_justification(&lines, i) {
            push(report, line_no, "ordering-justified", line);
        }
        if !shim && has_word(code, "unsafe") {
            push(report, line_no, "no-unsafe", line);
        }
        if test_code && !shim && code.contains("thread::sleep") {
            push(report, line_no, "no-sleep-sync", line);
        }
        if is_protocol {
            // Raw `as` casts onto sub-u64 integer widths (ids travel as u64; any such
            // cast silently truncates a hostile id into a plausible one).
            for target in ["as u8", "as u16", "as u32", "as usize", "as i8", "as i16", "as i32"] {
                let narrow =
                    code.find(target).is_some_and(|p| !code[p + target.len()..].starts_with('_'));
                if narrow {
                    push(report, line_no, "no-as-id-narrowing", line);
                    break;
                }
            }
        }
    }
}

/// Recursively collects every `.rs` file under `dir` (skipping `target/`).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|f| f == "target" || f == ".git") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The identifiers in the code of `text` (line-comment tails stripped), skipping `pub use`
/// items, single- or multi-line: a re-export names a fn without calling it.
fn code_words(text: &str) -> impl Iterator<Item = &str> {
    let mut in_reexport = false;
    text.lines()
        .map(code_part)
        .filter(move |code| {
            if in_reexport || code.trim_start().starts_with("pub use ") {
                in_reexport = !code.contains(';');
                return false;
            }
            true
        })
        .flat_map(|code| code.split(|c: char| c != '_' && !c.is_ascii_alphanumeric()))
        .filter(|w| !w.is_empty())
}

/// `(line number, name, line)` of every `pub fn` that `pub-has-caller` checks in `text`:
/// those of a `crates/*/src` file outside the shim crates, above its first `#[cfg(test)]`.
fn checked_pub_fns<'a>(path: &str, text: &'a str) -> Vec<(usize, &'a str, &'a str)> {
    let in_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
    if !in_src || in_shim_crate(path) {
        return Vec::new();
    }
    text.lines()
        .enumerate()
        .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
        .filter_map(|(i, l)| {
            let rest = code_part(l).trim_start().strip_prefix("pub fn ")?;
            let name = rest.split(|c: char| c != '_' && !c.is_ascii_alphanumeric()).next()?;
            Some((i + 1, name, l))
        })
        .collect()
}

/// `pub-has-caller` over a file set: flags each checked `pub fn` whose name the code of
/// no other file in `files` uses.
fn scan_callers(files: &[(String, String)], report: &mut LintReport) {
    const MANY: usize = usize::MAX;
    // The one file whose code uses each word, or `MANY` once a second file does.
    let mut users: HashMap<&str, usize> = HashMap::new();
    for (i, (_, text)) in files.iter().enumerate() {
        for word in code_words(text) {
            users.entry(word).and_modify(|f| *f = if *f == i { i } else { MANY }).or_insert(i);
        }
    }
    for (i, (path, text)) in files.iter().enumerate() {
        for (line_no, name, line) in checked_pub_fns(path, text) {
            if users.get(name) == Some(&i) {
                record(report, path, line_no, "pub-has-caller", line);
            }
        }
    }
}

/// Reads every `.rs` file under `root`'s `crates/`, `src/`, `tests/`, `examples/` and
/// `perfbench/src` trees as `(repo-relative path, text)`.
pub fn workspace_files(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "perfbench/src"] {
        rust_sources(&root.join(top), &mut files);
    }
    files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            (rel, text)
        })
        .collect()
}

/// Runs every rule over `files` (as [`workspace_files`] returns them). `perfbench/` is a
/// separate workspace: its code counts as callers but is not itself scanned.
pub fn scan_files(files: &[(String, String)]) -> LintReport {
    let mut report = LintReport::default();
    for (path, text) in files.iter().filter(|(p, _)| !p.starts_with("perfbench/")) {
        scan_source(path, text, &mut report);
    }
    scan_callers(files, &mut report);
    report
}

/// Scans the whole workspace rooted at `root` and returns the combined report.
pub fn scan_workspace(root: &Path) -> LintReport {
    scan_files(&workspace_files(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_one(path: &str, text: &str) -> LintReport {
        let mut r = LintReport::default();
        scan_source(path, text, &mut r);
        r
    }

    #[test]
    fn unjustified_ordering_is_flagged_and_justified_is_not() {
        let bad = "let x = a.load(Ordering::Relaxed);\n";
        let r = scan_one("crates/obs/src/x.rs", bad);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "ordering-justified");
        assert_eq!(r.violations[0].line, 1);

        let same_line = "let x = a.load(Ordering::Relaxed); // ordering: counter, no edge\n";
        assert!(scan_one("crates/obs/src/x.rs", same_line).violations.is_empty());

        let line_above = "// ordering: pairs with the Release store in record()\nlet x = a.load(Ordering::Acquire);\n";
        assert!(scan_one("crates/obs/src/x.rs", line_above).violations.is_empty());

        // Multi-line justification blocks count for the line they precede...
        let block = "// ordering: Acquire — pairs with the committed Release stamp;\n// the recheck below depends on it.\nlet x = a.load(Ordering::Acquire);\n";
        assert!(scan_one("crates/obs/src/x.rs", block).violations.is_empty());
        // ...but a block does not leak past intervening code.
        let gap =
            "// ordering: justified up here\nlet y = 1;\nlet x = a.load(Ordering::Relaxed);\n";
        assert_eq!(scan_one("crates/obs/src/x.rs", gap).violations.len(), 1);
    }

    #[test]
    fn ordering_in_comments_and_shim_crates_is_exempt() {
        let comment_only = "// the stamp is loaded with Ordering::Acquire twice\n";
        assert!(scan_one("crates/obs/src/x.rs", comment_only).violations.is_empty());
        let shim = "let x = a.load(Ordering::Relaxed);\n";
        assert!(scan_one("crates/check/src/model.rs", shim).violations.is_empty());
        assert!(scan_one("crates/rand/src/lib.rs", shim).violations.is_empty());
    }

    #[test]
    fn unsafe_is_flagged_outside_shims_but_attributes_are_not() {
        let bad = "unsafe { *ptr }\n";
        let r = scan_one("crates/graph/src/csr.rs", bad);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "no-unsafe");
        // The forbid attribute itself must stay legal — `unsafe_code` is not the token.
        assert!(scan_one("crates/graph/src/lib.rs", "#![forbid(unsafe_code)]\n")
            .violations
            .is_empty());
        // And shim crates may use it.
        assert!(scan_one("crates/rand/src/lib.rs", bad).violations.is_empty());
    }

    #[test]
    fn sleep_is_flagged_in_test_code_only() {
        let sleepy = "std::thread::sleep(Duration::from_millis(50));\n";
        let r = scan_one("crates/serve/tests/foo.rs", sleepy);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "no-sleep-sync");
        // Non-test code may sleep (e.g. a polling loadgen pacing itself).
        assert!(scan_one("crates/serve/src/loadgen.rs", sleepy).violations.is_empty());
        // A #[cfg(test)] module inside a src file counts as test code.
        let module = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::sleep(d); }\n}\n";
        assert_eq!(scan_one("crates/serve/src/service.rs", module).violations.len(), 1);
    }

    #[test]
    fn id_narrowing_casts_are_flagged_in_protocol_only() {
        let bad = "let shard = id as u32;\n";
        let r = scan_one("crates/serve/src/protocol.rs", bad);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "no-as-id-narrowing");
        // Widening to u64 is fine, and other files are out of scope for this rule.
        assert!(scan_one("crates/serve/src/protocol.rs", "let x = n as u64;\n")
            .violations
            .is_empty());
        assert!(scan_one("crates/serve/src/service.rs", bad).violations.is_empty());
    }

    #[test]
    fn allow_markers_suppress_and_are_counted() {
        let allowed = "let shard = id as u32; // lint: allow(no-as-id-narrowing) bounded above\n";
        let r = scan_one("crates/serve/src/protocol.rs", allowed);
        assert!(r.violations.is_empty());
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed[0].2, "no-as-id-narrowing");
        // The marker names a specific rule: it does not blanket-allow others.
        let wrong_rule = "unsafe { x } // lint: allow(no-as-id-narrowing) nope\n";
        assert_eq!(scan_one("crates/graph/src/a.rs", wrong_rule).violations.len(), 1);
    }

    #[test]
    fn pub_fns_need_a_caller_in_another_file() {
        let lib = "pub fn called_elsewhere() {}\n\
                   pub fn called_at_home() {}\n\
                   pub fn named_in_a_comment() {}\n\
                   pub fn only_reexported() {}\n\
                   pub fn only_reexported_in_a_list() {}\n\
                   pub fn reexported_and_called() {}\n\
                   pub(crate) fn helper() { called_at_home(); }\n\
                   #[cfg(test)]\n\
                   pub fn below_the_test_marker() {}\n";
        let caller = "fn main() { called_elsewhere(); } // named_in_a_comment\n";
        // A `pub use` item, on one line or many, names a fn without calling it.
        let root = "pub use a::only_reexported;\n\
                    pub use a::{\n    only_reexported_in_a_list,\n    reexported_and_called,\n};\n\
                    fn after_the_items() { reexported_and_called(); }\n";
        let files = |lib_path: &str| {
            vec![
                (lib_path.to_string(), lib.to_string()),
                ("crates/graph/src/lib.rs".to_string(), root.to_string()),
                ("perfbench/src/main.rs".to_string(), caller.to_string()),
            ]
        };
        let r = scan_files(&files("crates/graph/src/a.rs"));
        let flagged: Vec<(&str, usize)> = r.violations.iter().map(|v| (v.rule, v.line)).collect();
        let expected = [2, 3, 4, 5].map(|line| ("pub-has-caller", line));
        assert_eq!(flagged, expected);
        // Shim crates, and files outside `crates/*/src`, are not checked.
        assert!(scan_files(&files("crates/check/src/a.rs")).violations.is_empty());
        assert!(scan_files(&files("crates/graph/tests/a.rs")).violations.is_empty());
    }

    #[test]
    fn string_literals_do_not_hide_or_fake_violations() {
        // `//` inside a string is not a comment — the cast after it is still seen.
        let tricky = "let s = \"//\"; let x = id as u32;\n";
        assert_eq!(scan_one("crates/serve/src/protocol.rs", tricky).violations.len(), 1);
        // An Ordering:: mention inside a string still needs no justification? It is
        // code-part text, so it does: write the comment. (Pinned so the rule stays
        // conservative rather than quietly lenient.)
        let in_string = "let s = \"Ordering::Relaxed\";\n";
        assert_eq!(scan_one("crates/obs/src/x.rs", in_string).violations.len(), 1);
    }
}
