//! Prometheus-style text exposition: a small builder plus a strict validator.
//!
//! The builder emits the classic text format — `# HELP` / `# TYPE` headers followed by
//! `name{label="value"} value` samples — because every metrics pipeline in existence can
//! scrape it, and a line-based format frames cleanly over the service's newline-delimited
//! wire protocol. The validator is deliberately strict (no blank lines, types declared
//! before samples, label values fully escaped) so the hostile-input fuzz suites can
//! assert the exposition stays well-formed under storm conditions.

/// Builds a Prometheus-style text exposition.
///
/// Families must be declared (via [`counter`](Exposition::counter),
/// [`gauge`](Exposition::gauge), [`counter_family`](Exposition::counter_family), …)
/// before samples are appended; the builder writes the `# HELP`/`# TYPE` header at
/// declaration time, so calls group naturally by family.
#[derive(Debug, Default)]
pub struct Exposition {
    buf: String,
}

impl Exposition {
    /// Creates an empty exposition.
    pub fn new() -> Self {
        Exposition::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(is_metric_name(name), "invalid metric name {name:?}");
        self.buf.push_str("# HELP ");
        self.buf.push_str(name);
        self.buf.push(' ');
        for c in help.chars() {
            match c {
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c => self.buf.push(c),
            }
        }
        self.buf.push('\n');
        self.buf.push_str("# TYPE ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(kind);
        self.buf.push('\n');
    }

    /// Appends one sample line for an already-declared family.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.buf.push_str(name);
        if !labels.is_empty() {
            self.buf.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                self.buf.push_str(k);
                self.buf.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => self.buf.push_str("\\\\"),
                        '"' => self.buf.push_str("\\\""),
                        '\n' => self.buf.push_str("\\n"),
                        c => self.buf.push(c),
                    }
                }
                self.buf.push('"');
            }
            self.buf.push('}');
        }
        self.buf.push(' ');
        self.buf.push_str(&format_value(value));
        self.buf.push('\n');
    }

    /// Declares a counter family; append labelled samples with [`sample`](Self::sample).
    pub fn counter_family(&mut self, name: &str, help: &str) {
        self.header(name, help, "counter");
    }

    /// Declares a gauge family (the header half of [`gauge`](Self::gauge)).
    fn gauge_family(&mut self, name: &str, help: &str) {
        self.header(name, help, "gauge");
    }

    /// Declares and emits a single unlabelled counter.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) {
        self.counter_family(name, help);
        self.sample(name, &[], value);
    }

    /// Declares and emits a single unlabelled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.gauge_family(name, help);
        self.sample(name, &[], value);
    }

    /// Emits a histogram from log2-of-nanoseconds buckets: bucket `i` counts samples in
    /// `(2^(i-1), 2^i]` ns, so the cumulative `le` bound of bucket `i` is `2^i` ns,
    /// rendered in seconds. Empty buckets are elided (cumulative counts stay correct);
    /// the mandatory `+Inf` bucket, `_sum` (in seconds), and `_count` are always present.
    pub fn histogram_log2(&mut self, name: &str, help: &str, buckets: &[u64], sum_seconds: f64) {
        self.header(name, help, "histogram");
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let le = format_value(2f64.powi(i as i32) * 1e-9);
            self.sample(&bucket_name, &[("le", &le)], cumulative as f64);
        }
        self.sample(&bucket_name, &[("le", "+Inf")], cumulative as f64);
        self.sample(&format!("{name}_sum"), &[], sum_seconds);
        self.sample(&format!("{name}_count"), &[], cumulative as f64);
    }

    /// Returns the rendered exposition (always `\n`-terminated when non-empty).
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Renders a value the way Prometheus clients do: integers without a decimal point,
/// everything else in scientific notation (round-trippable via `f64::parse`).
fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9_007_199_254_740_992.0 {
        format!("{value:.0}")
    } else {
        format!("{value:e}")
    }
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Strict well-formedness check for the exposition format produced by [`Exposition`],
/// used by the hostile-input fuzz suites.
///
/// Accepts only: non-empty lines; `# HELP name text` and `# TYPE name counter|gauge|
/// histogram` headers (one `TYPE` per family, `HELP` immediately before it); sample
/// lines `name{label="escaped"} value` whose family was declared by an earlier `TYPE`
/// line (histogram samples may use the `_bucket`/`_sum`/`_count` suffixes) and whose
/// value parses as a finite-or-infinite `f64`. Trailing newline required.
pub fn is_well_formed(text: &str) -> bool {
    if text.is_empty() {
        return true;
    }
    if !text.ends_with('\n') {
        return false;
    }
    let mut declared: Vec<(String, String)> = Vec::new(); // (name, kind)
    for line in text.lines() {
        if line.is_empty() {
            return false;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let tail = parts.next();
            if !is_metric_name(name) {
                return false;
            }
            match keyword {
                "HELP" => {
                    if tail.is_none() {
                        return false;
                    }
                }
                "TYPE" => {
                    let kind = tail.unwrap_or("");
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        return false;
                    }
                    if declared.iter().any(|(n, _)| n == name) {
                        return false; // duplicate family declaration
                    }
                    declared.push((name.to_string(), kind.to_string()));
                }
                _ => return false,
            }
            continue;
        }
        if !parse_sample_line(line, &declared) {
            return false;
        }
    }
    true
}

/// Validates one sample line against the declared families.
fn parse_sample_line(line: &str, declared: &[(String, String)]) -> bool {
    // Split the metric name: everything up to '{' or ' '.
    let name_end = line.find(['{', ' ']).unwrap_or(line.len());
    let name = &line[..name_end];
    if !is_metric_name(name) {
        return false;
    }
    let family_ok = declared.iter().any(|(n, kind)| {
        n == name
            || (kind == "histogram"
                && [format!("{n}_bucket"), format!("{n}_sum"), format!("{n}_count")]
                    .iter()
                    .any(|s| s == name))
    });
    if !family_ok {
        return false;
    }
    let mut rest = &line[name_end..];
    if let Some(after_brace) = rest.strip_prefix('{') {
        let Some(close) = find_unescaped_close(after_brace) else {
            return false;
        };
        if !labels_are_valid(&after_brace[..close]) {
            return false;
        }
        rest = &after_brace[close + 1..];
    }
    let Some(value) = rest.strip_prefix(' ') else {
        return false;
    };
    !value.is_empty() && !value.contains(' ') && value.parse::<f64>().is_ok()
}

/// Index of the `}` closing the label set, skipping quoted (escaped) label values.
fn find_unescaped_close(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Validates `k="v",k="v"` label pairs (contents between the braces).
fn labels_are_valid(s: &str) -> bool {
    if s.is_empty() {
        return false; // we never emit `name{} value`
    }
    let mut rest = s;
    loop {
        let Some(eq) = rest.find('=') else {
            return false;
        };
        if !is_label_name(&rest[..eq]) {
            return false;
        }
        let Some(after_quote) = rest[eq + 1..].strip_prefix('"') else {
            return false;
        };
        // Find the closing quote, honouring backslash escapes.
        let bytes = after_quote.as_bytes();
        let mut escaped = false;
        let mut close = None;
        for (i, &b) in bytes.iter().enumerate() {
            if escaped {
                if !matches!(b, b'\\' | b'"' | b'n') {
                    return false;
                }
                escaped = false;
                continue;
            }
            match b {
                b'\\' => escaped = true,
                b'"' => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(close) = close else {
            return false;
        };
        rest = &after_quote[close + 1..];
        if rest.is_empty() {
            return true;
        }
        let Some(next) = rest.strip_prefix(',') else {
            return false;
        };
        rest = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_is_well_formed() {
        let mut e = Exposition::new();
        e.counter("msrp_queries_total", "Queries answered.", 1234.0);
        e.gauge("msrp_epoch", "Current epoch id.", 3.0);
        e.counter_family("msrp_shard_queries_total", "Per-shard query counts.");
        e.sample("msrp_shard_queries_total", &[("shard", "0")], 70.0);
        e.sample("msrp_shard_queries_total", &[("shard", "1")], 64.0);
        let mut buckets = vec![0u64; 64];
        buckets[10] = 5;
        buckets[12] = 2;
        e.histogram_log2("msrp_batch_latency_seconds", "Batch latency.", &buckets, 0.0123);
        let text = e.finish();
        assert!(is_well_formed(&text), "not well-formed:\n{text}");
        assert!(text.contains("msrp_queries_total 1234\n"));
        assert!(text.contains("msrp_shard_queries_total{shard=\"0\"} 70\n"));
        assert!(text.contains("msrp_batch_latency_seconds_bucket{le=\"+Inf\"} 7\n"));
        assert!(text.contains("msrp_batch_latency_seconds_count 7\n"));
    }

    #[test]
    fn histogram_cumulative_counts_are_monotone() {
        let mut buckets = vec![0u64; 64];
        buckets[3] = 4;
        buckets[5] = 1;
        buckets[9] = 7;
        let mut e = Exposition::new();
        e.histogram_log2("h", "help", &buckets, 1.0);
        let text = e.finish();
        let counts: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("h_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts, vec![4.0, 5.0, 12.0, 12.0]);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        e.counter_family("m", "help");
        e.sample("m", &[("k", "a\"b\\c\nd")], 1.0);
        let text = e.finish();
        assert!(text.contains("m{k=\"a\\\"b\\\\c\\nd\"} 1\n"));
        assert!(is_well_formed(&text));
    }

    #[test]
    fn validator_rejects_malformations() {
        // Sample for an undeclared family.
        assert!(!is_well_formed("m 1\n"));
        // Missing trailing newline.
        assert!(!is_well_formed("# HELP m h\n# TYPE m counter\nm 1"));
        // Blank interior line.
        assert!(!is_well_formed("# HELP m h\n# TYPE m counter\n\nm 1\n"));
        // Bad type keyword.
        assert!(!is_well_formed("# HELP m h\n# TYPE m widget\nm 1\n"));
        // Duplicate TYPE.
        assert!(!is_well_formed(
            "# HELP m h\n# TYPE m counter\n# HELP m h\n# TYPE m counter\nm 1\n"
        ));
        // Non-numeric value, unterminated labels, bad label name.
        let ok = "# HELP m h\n# TYPE m counter\n";
        assert!(!is_well_formed(&format!("{ok}m abc\n")));
        assert!(!is_well_formed(&format!("{ok}m{{k=\"v\" 1\n")));
        assert!(!is_well_formed(&format!("{ok}m{{9k=\"v\"}} 1\n")));
        assert!(!is_well_formed(&format!("{ok}m{{}} 1\n")));
        // Histogram suffixes only valid under a histogram family.
        assert!(!is_well_formed(&format!("{ok}m_bucket{{le=\"+Inf\"}} 1\n")));
        // And the empty exposition is fine.
        assert!(is_well_formed(""));
    }

    #[test]
    fn validator_accepts_histogram_suffixes() {
        let text = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n";
        assert!(is_well_formed(text));
    }
}
