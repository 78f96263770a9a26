//! Guard for the model checker's bounded-by-default contract: plain `cargo test -q`
//! explores at most [`ModelConfig::DEFAULT_BUDGET`] schedules per test, and only a human
//! exporting `MSRP_MODEL_EXHAUSTIVE=1` lifts the cap — never CI, never a test itself.

use std::fs;
use std::path::{Path, PathBuf};

use msrp_check::model::ModelConfig;

/// Repository root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// Every `.rs` file under `dir` (sources, tests, benches, bins).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|f| f == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_default_budget_is_the_documented_cap() {
    let cfg = ModelConfig::default();
    assert_eq!(cfg.max_schedules, ModelConfig::DEFAULT_BUDGET);
    match std::env::var("MSRP_MODEL_EXHAUSTIVE") {
        Ok(v) if !v.is_empty() && v != "0" => {
            // A human opted into exhaustion for this run; the cap is deliberately void.
            assert_eq!(cfg.effective_budget(), usize::MAX);
        }
        _ => {
            assert_eq!(
                cfg.effective_budget(),
                ModelConfig::DEFAULT_BUDGET,
                "the default test path must stay schedule-capped"
            );
        }
    }
}

#[test]
fn ci_never_lifts_the_schedule_cap() {
    let ci = fs::read_to_string(repo_root().join(".github/workflows/ci.yml")).unwrap();
    for line in ci.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with('#') {
            continue;
        }
        assert!(
            !trimmed.contains("MSRP_MODEL_EXHAUSTIVE"),
            "CI must not opt into exhaustive model checking: `{line}`"
        );
    }
}

#[test]
fn no_test_sets_the_exhaustive_env_var_programmatically() {
    // The override exists for humans at a shell, not for tests to smuggle unbounded
    // exploration onto the default path (model runs would stop being time-bounded and
    // `set_var` is process-global — it would leak into concurrently running tests).
    let root = repo_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    assert!(sources.len() > 50, "the source scan must actually see the workspace");
    for path in &sources {
        let text = fs::read_to_string(path).unwrap();
        let is_this_guard = path.ends_with("crates/check/tests/model_budget_guard.rs");
        assert!(
            !text.contains("set_var(\"MSRP_MODEL_EXHAUSTIVE") || is_this_guard,
            "{} sets MSRP_MODEL_EXHAUSTIVE programmatically — the cap must only be \
             lifted from a shell",
            path.display()
        );
    }
}

#[test]
fn model_tests_stay_within_the_default_budget() {
    // Every model test in this crate uses ModelConfig::default() or a *smaller*
    // explicit budget; none may quietly raise max_schedules above the documented cap.
    let tests_dir = repo_root().join("crates/check/tests");
    let mut sources = Vec::new();
    rust_sources(&tests_dir, &mut sources);
    // Assembled at runtime so this guard's own source does not match its own scan.
    let needle = format!("{}{}", "with_budget", "(");
    for path in &sources {
        let text = fs::read_to_string(path).unwrap();
        for (i, line) in text.lines().enumerate() {
            if let Some(pos) = line.find(&needle) {
                let arg: String = line[pos + needle.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '_')
                    .collect();
                let value: usize = arg.replace('_', "").parse().unwrap_or_else(|_| {
                    panic!("{}:{}: non-literal with_budget argument", path.display(), i + 1)
                });
                assert!(
                    value <= ModelConfig::DEFAULT_BUDGET,
                    "{}:{}: budget {value} exceeds the default cap",
                    path.display(),
                    i + 1
                );
            }
        }
    }
}
