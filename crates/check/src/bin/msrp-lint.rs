//! `msrp-lint` — the repo lint wall, runnable as `cargo run -p msrp-check --bin msrp-lint`.
//!
//! Exit status: 0 when the workspace is clean *and* the allowlist is within the cap;
//! 1 when violations exist or the allowlist grew past `--max-allow` (default 0).
//!
//! Flags:
//!
//! * `--max-allow <n>` — permitted number of `lint: allow(...)` entries (zero-growth
//!   policy: CI pins this to the committed count, currently 0).
//! * `--self-test` — scan the seeded violation fixtures in `crates/check/fixtures/` and
//!   exit 0 only if every expected violation is detected (proves the wall actually
//!   rejects what it claims to; run in CI next to the clean scan).
//! * `--counts` — print `rules=<n> files=<n> violations=<n> allowed=<n>` for the
//!   `BENCH_check.json` trajectory record.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use msrp_check::lint::{scan_files, scan_workspace, workspace_files, RULES};

/// Repository root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let max_allow: usize = args
        .iter()
        .position(|a| a == "--max-allow")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--max-allow takes an integer"))
        .unwrap_or(0);
    let report = scan_workspace(&repo_root());
    if args.iter().any(|a| a == "--counts") {
        println!(
            "rules={} files={} violations={} allowed={}",
            RULES.len(),
            report.files_scanned,
            report.violations.len(),
            report.allowed.len()
        );
    }
    for v in &report.violations {
        eprintln!("{v}");
    }
    for (file, line, rule) in &report.allowed {
        eprintln!("allow: {file}:{line}: [{rule}]");
    }
    if !report.violations.is_empty() {
        eprintln!("msrp-lint: {} violation(s)", report.violations.len());
        return ExitCode::FAILURE;
    }
    if report.allowed.len() > max_allow {
        eprintln!(
            "msrp-lint: allowlist grew to {} entries (cap {max_allow}); justify the new \
             entry and raise the cap consciously in CI",
            report.allowed.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "msrp-lint: clean ({} files, {} rules, {} allowlist entries)",
        report.files_scanned,
        RULES.len(),
        report.allowed.len()
    );
    ExitCode::SUCCESS
}

/// Scans the seeded violation fixtures: each `*.rs-fixture` file under
/// `crates/check/fixtures/` declares its expected findings in `// expect:` header lines
/// (`// expect: <rule> <line>`). The fixture extension keeps the files out of the real
/// workspace scan and out of `cargo` target discovery. Each fixture is scanned at its
/// pretend path beside the real workspace files, so `pub-has-caller` sees the callers a
/// real file would, and only the fixture's own findings are compared.
fn self_test() -> ExitCode {
    let root = repo_root();
    let workspace = workspace_files(&root);
    let dir = root.join("crates/check/fixtures");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs-fixture"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no fixtures found in {}", dir.display());
    let mut failed = false;
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        // The pretend path is the first header line: `// path: crates/...`.
        let pretend = text
            .lines()
            .find_map(|l| l.strip_prefix("// path: "))
            .expect("fixture must declare `// path: <repo-relative path>`")
            .trim()
            .to_string();
        let expected: Vec<(String, usize)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("// expect: "))
            .map(|spec| {
                let (rule, line) = spec.trim().split_once(' ').expect("`// expect: rule line`");
                (rule.to_string(), line.parse().expect("expect line number"))
            })
            .collect();
        assert!(!expected.is_empty(), "{}: fixture declares no expectations", path.display());
        let mut files = workspace.clone();
        files.push((pretend.clone(), text));
        let got: Vec<(String, usize)> = scan_files(&files)
            .violations
            .iter()
            .filter(|v| v.file == pretend)
            .map(|v| (v.rule.to_string(), v.line))
            .collect();
        if got == expected {
            println!("fixture {}: ok ({} finding(s))", path.display(), got.len());
        } else {
            eprintln!("fixture {}: expected {:?}, lint found {:?}", path.display(), expected, got);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("msrp-lint --self-test: all fixtures detected");
        ExitCode::SUCCESS
    }
}
