//! The repo-specific static-analysis rules.
//!
//! Rules are token-oriented: each file is lexed by [`crate::token`] (so
//! string literals, char literals, and nested block comments can never
//! produce false positives), `#[cfg(test)]` items and `mod tests` blocks
//! are removed structurally, and the surviving token stream is matched
//! against every rule whose scope covers the file. This is deliberately a
//! lexical tool — it has no false-negative-free guarantee, but it catches
//! the bug classes that have historically corrupted inference results
//! (panicking float comparisons, unseeded randomness, nondeterministic
//! map iteration, unfenced atomics) at near-zero cost and with zero
//! dependencies.
//!
//! | id                     | scope              | what it rejects                                       |
//! |------------------------|--------------------|-------------------------------------------------------|
//! | `no-unwrap`            | full               | `.unwrap()` outside tests                             |
//! | `no-expect`            | full               | `.expect(` outside tests                              |
//! | `no-panic`             | full               | `panic!` / `todo!` / `unimplemented!` / `unreachable!` |
//! | `unseeded-rng`         | full + harness     | `thread_rng` / `from_entropy` (nondeterminism)        |
//! | `no-println`           | full + harness     | `println!` / `eprintln!` outside binary targets       |
//! | `no-instant`           | all but `wsnloc-obs` | raw `Instant::now` (timing must flow through `Stopwatch`) |
//! | `partial-cmp-unwrap`   | full               | `partial_cmp(..).unwrap()` (panics on NaN)            |
//! | `float-eq`             | full               | `==` / `!=` against a float literal                   |
//! | `float-index-cast`     | `wsnloc-bayes`     | float→integer `as` casts in inference hot loops       |
//! | `no-hashmap-iter`      | full               | `HashMap`/`HashSet` (iteration order is nondeterministic: use `BTreeMap`/`BTreeSet`, sort before iterating, or audit the site as lookup-only) |
//! | `atomic-ordering-audit`| full + harness     | `Ordering::Relaxed` outside audited counter sites, `Ordering::SeqCst` (a smell: name the fence you need), atomic calls that don't name an `Ordering`, `compare_and_swap` |
//! | `unsafe-safety-comment`| full + harness     | `unsafe` without a `SAFETY`/`# Safety` comment on the same line or immediately above |
//! | `lossy-cast-audit`     | `wsnloc-bayes` + `wsnloc` core | narrowing `as` casts (`u8`/`u16`/`u32`/`i8`/`i16`/`i32`/`f32`) that can truncate or wrap — use `try_from`/checked conversions |
//!
//! "full" scope is the library crates plus `compat/rayon` and `xtask`
//! itself; "harness" is the evaluation root (`crates/eval`), which may panic on
//! broken configs but must stay deterministic and observable. Audited
//! exceptions live in `xtask-lint.toml` (see [`crate::allowlist`]).

use crate::allowlist::Allowlist;
use crate::token::{self, LexFile, Tok, TokKind};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Roots where every rule applies: the library crates whose `src/` must
/// be panic-free and deterministic, the rayon shim (whose scheduling is
/// exactly where determinism bugs would hide), and the linter itself.
const FULL_ROOTS: [&str; 9] = [
    "crates/geom",
    "crates/net",
    "crates/bayes",
    "crates/obs",
    "crates/core",
    "crates/serve",
    "crates/baselines",
    "compat/rayon",
    "xtask",
];

/// Roots where only the determinism/observability rules apply: the
/// evaluation harness (experiments and `repro bench`) may panic on
/// broken configs, but silent nondeterminism there invalidates every
/// reported number.
const HARNESS_ROOTS: [&str; 1] = ["crates/eval"];

/// Which rule set applies to a scan root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Every rule.
    Full,
    /// Determinism and observability rules only.
    Harness,
}

/// Atomic operations that take an explicit `Ordering` argument. `swap`
/// is deliberately absent: slice/`Vec::swap` is far more common than
/// `Atomic*::swap` and a lexical tool cannot tell receivers apart.
const ATOMIC_METHODS: [&str; 13] = [
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// `as` targets that can silently truncate or wrap when the source is
/// wider (or, for `f32`, lose precision).
const NARROW_CAST_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// `as` targets the float→index rule watches inside the inference crate.
const INDEX_CAST_TARGETS: [&str; 5] = ["usize", "u32", "u64", "i32", "i64"];

/// One rule violation at a specific source line.
#[derive(Debug)]
pub(crate) struct Violation {
    /// Workspace-relative path.
    pub(crate) path: String,
    /// 1-based line number.
    pub(crate) line: usize,
    /// Rule id.
    pub(crate) rule: &'static str,
    /// The offending line, trimmed.
    pub(crate) excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.excerpt
        )
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub(crate) struct Report {
    /// Violations not covered by the allowlist, in path/line order.
    pub(crate) violations: Vec<Violation>,
    /// Non-fatal notes (stale allowlist entries); promoted to errors
    /// under `--deny-stale`.
    pub(crate) warnings: Vec<String>,
    /// Number of files scanned.
    pub(crate) files_scanned: usize,
    /// Allowlist entries that silenced at least one finding.
    pub(crate) exceptions_used: usize,
}

/// Runs every rule over the workspace at `root`.
pub(crate) fn run(root: &Path, allow: &Allowlist) -> io::Result<Report> {
    let mut report = Report::default();

    let scan_root = |rel_root: &str, scope: Scope, report: &mut Report| -> io::Result<()> {
        let src = root.join(rel_root).join("src");
        if !src.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("expected source directory {} is missing", src.display()),
            ));
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            report.files_scanned += 1;
            scan_file(&rel, &text, scope, allow, &mut report.violations);
        }
        Ok(())
    };

    for crate_root in FULL_ROOTS {
        scan_root(crate_root, Scope::Full, &mut report)?;
    }
    for crate_root in HARNESS_ROOTS {
        scan_root(crate_root, Scope::Harness, &mut report)?;
    }

    for stale in allow.stale() {
        report.warnings.push(format!(
            "stale allowlist entry: rule `{}` for {} (`{}`) matched nothing — delete it",
            stale.rule, stale.path, stale.contains
        ));
    }
    report.exceptions_used = allow.used_count();
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Per-line facts precomputed from the lexed file, for the rules that
/// need line context (comment adjacency, float evidence).
struct LineFacts {
    /// `true` when at least one non-comment token sits on the line —
    /// distinguishes pure comment/attribute lines when walking upward
    /// from an `unsafe` keyword.
    has_code: Vec<bool>,
    /// `Some(has_safety)` when a comment covers the line.
    comment: Vec<Option<bool>>,
    /// Float evidence for the cast rules: a rounding-call identifier or
    /// an `f64` token appears on the line.
    float_evidence: Vec<bool>,
}

impl LineFacts {
    fn build(lexed: &LexFile, line_count: usize) -> LineFacts {
        let mut facts = LineFacts {
            has_code: vec![false; line_count + 2],
            comment: vec![None; line_count + 2],
            float_evidence: vec![false; line_count + 2],
        };
        for t in &lexed.tokens {
            if let Some(slot) = facts.has_code.get_mut(t.line) {
                *slot = true;
            }
            let evidence = t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "floor" | "ceil" | "round" | "trunc" | "f64"
                );
            if evidence {
                if let Some(slot) = facts.float_evidence.get_mut(t.line) {
                    *slot = true;
                }
            }
        }
        for c in &lexed.comments {
            for l in c.start_line..=c.end_line.min(line_count) {
                let slot = &mut facts.comment[l];
                *slot = Some(slot.unwrap_or(false) | c.has_safety);
            }
        }
        facts
    }

    /// `true` if a `SAFETY`/`# Safety` comment sits on `line` or in the
    /// contiguous run of comment/attribute/blank lines immediately above.
    fn safety_justified(&self, raw_lines: &[&str], line: usize) -> bool {
        if self.comment.get(line).copied().flatten() == Some(true) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let comment_only = !self.has_code[l] && self.comment[l].is_some();
            if comment_only {
                if self.comment[l] == Some(true) {
                    return true;
                }
                l -= 1;
                continue;
            }
            let text = raw_lines.get(l - 1).map_or("", |s| s.trim());
            if text.is_empty() || text.starts_with('#') {
                l -= 1;
                continue;
            }
            return false;
        }
        false
    }
}

/// Scans one file under the given rule scope.
fn scan_file(rel: &str, text: &str, scope: Scope, allow: &Allowlist, out: &mut Vec<Violation>) {
    let lexed = token::lex(text);
    let raw_lines: Vec<&str> = text.lines().collect();
    let facts = LineFacts::build(&lexed, raw_lines.len());
    let tokens = token::strip_test_scopes(lexed.tokens);

    let in_bayes = rel.starts_with("crates/bayes/");
    let lossy_scope = in_bayes || rel.starts_with("crates/core/");
    let in_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
    let in_obs = rel.starts_with("crates/obs/");
    let full = scope == Scope::Full;

    let emit = |rule: &'static str, line: usize, out: &mut Vec<Violation>| {
        let raw = raw_lines.get(line.saturating_sub(1)).copied().unwrap_or("");
        if !allow.permits(rule, rel, raw) {
            out.push(Violation {
                path: rel.to_string(),
                line,
                rule,
                excerpt: raw.trim().to_string(),
            });
        }
    };

    let txt = |k: usize| tokens.get(k).map_or("", |t| t.text.as_str());
    let ident_at = |k: usize, name: &str| {
        tokens
            .get(k)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    };
    // `true` when an identifier `name` appears earlier on the same line —
    // chains like `a.partial_cmp(b).unwrap()` are line-local by rustfmt.
    let line_has_before = |idx: usize, name: &str| {
        let line = tokens[idx].line;
        tokens[..idx]
            .iter()
            .rev()
            .take_while(|t| t.line == line)
            .any(|t| t.kind == TokKind::Ident && t.text == name)
    };

    for idx in 0..tokens.len() {
        let t = &tokens[idx];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "thread_rng" | "from_entropy" => emit("unseeded-rng", t.line, out),
                // Library and harness code must report through return
                // values or the observer layer, never ad-hoc
                // stdout/stderr writes; binary targets are CLI surfaces
                // and exempt.
                "println" | "eprintln" if !in_bin && txt(idx + 1) == "!" => {
                    emit("no-println", t.line, out);
                }
                // All wall-clock timing flows through
                // `wsnloc_obs::Stopwatch`; raw `Instant::now` anywhere
                // else bypasses the one timing primitive observability
                // can account for.
                "Instant" if !in_obs && txt(idx + 1) == "::" && ident_at(idx + 2, "now") => {
                    emit("no-instant", t.line, out);
                }
                // Every atomic access must name its ordering at the call
                // site — a call whose argument list has no `Ordering::…`
                // path is either a different API (fine, allowlist it) or
                // an atomic hiding its fence behind an import.
                m if ATOMIC_METHODS.contains(&m)
                    && txt(idx.wrapping_sub(1)) == "."
                    && txt(idx + 1) == "(" =>
                {
                    let close = token::matching_bracket(&tokens, idx + 1);
                    let names_ordering = tokens[idx + 2..close]
                        .iter()
                        .any(|a| a.kind == TokKind::Ident && a.text == "Ordering");
                    // Zero-argument calls (e.g. some future `load()`
                    // shim) still count: atomics always take arguments.
                    if !names_ordering {
                        emit("atomic-ordering-audit", t.line, out);
                    }
                }
                // `Relaxed` provides no happens-before edge: permitted
                // only at audited monotone-counter sites (allowlisted
                // with reasons). `SeqCst` is the opposite smell — a
                // global fence where the author didn't decide which
                // acquire/release edge they needed.
                "Ordering"
                    if txt(idx + 1) == "::" && matches!(txt(idx + 2), "Relaxed" | "SeqCst") =>
                {
                    emit("atomic-ordering-audit", tokens[idx + 2].line, out);
                }
                // Deprecated pre-1.50 API with implicit SeqCst-ish
                // semantics; always wrong here.
                "compare_and_swap" => emit("atomic-ordering-audit", t.line, out),
                // Every `unsafe` block, fn, or impl needs a written
                // justification where the invariant is discharged.
                "unsafe" if !facts.safety_justified(&raw_lines, t.line) => {
                    emit("unsafe-safety-comment", t.line, out);
                }
                _ if !full => {}
                "unwrap"
                    if txt(idx.wrapping_sub(1)) == "."
                        && txt(idx + 1) == "("
                        && txt(idx + 2) == ")" =>
                {
                    if line_has_before(idx, "partial_cmp") {
                        emit("partial-cmp-unwrap", t.line, out);
                    } else {
                        emit("no-unwrap", t.line, out);
                    }
                }
                "expect" if txt(idx.wrapping_sub(1)) == "." && txt(idx + 1) == "(" => {
                    if line_has_before(idx, "partial_cmp") {
                        emit("partial-cmp-unwrap", t.line, out);
                    } else {
                        emit("no-expect", t.line, out);
                    }
                }
                "panic" | "todo" | "unimplemented" | "unreachable" if txt(idx + 1) == "!" => {
                    emit("no-panic", t.line, out);
                }
                // `HashMap`/`HashSet` iteration order varies per process:
                // any use in deterministic paths must be `BTreeMap`/
                // `BTreeSet`, an explicit sort, or an audited
                // lookup-only site.
                "HashMap" | "HashSet" => emit("no-hashmap-iter", t.line, out),
                "as" => {
                    let target = txt(idx + 1);
                    if in_bayes
                        && INDEX_CAST_TARGETS.contains(&target)
                        && facts.float_evidence.get(t.line).copied().unwrap_or(false)
                    {
                        // Float→index casts silently truncate and wrap on
                        // NaN/negative input inside inference hot loops.
                        emit("float-index-cast", t.line, out);
                    } else if lossy_scope && NARROW_CAST_TARGETS.contains(&target) {
                        emit("lossy-cast-audit", t.line, out);
                    }
                }
                _ => {}
            },
            // `==`/`!=` against a float literal: exact float comparison
            // is almost always a bug in numeric code (use total_cmp or a
            // tolerance).
            TokKind::Punct if full && matches!(t.text.as_str(), "==" | "!=") => {
                let prev_float = idx > 0
                    && tokens[idx - 1].kind == TokKind::Num
                    && token::is_float_lit(&tokens[idx - 1].text);
                let next = if txt(idx + 1) == "-" {
                    idx + 2
                } else {
                    idx + 1
                };
                let next_float = tokens
                    .get(next)
                    .is_some_and(|n| n.kind == TokKind::Num && token::is_float_lit(&n.text));
                if prev_float || next_float {
                    emit("float-eq", t.line, out);
                }
            }
            _ => {}
        }
    }
    let _ = &tokens as &Vec<Tok>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, text: &str, scope: Scope) -> Vec<(String, usize)> {
        let allow = Allowlist::default();
        let mut out = Vec::new();
        scan_file(rel, text, scope, &allow, &mut out);
        out.into_iter()
            .map(|v| (v.rule.to_string(), v.line))
            .collect()
    }

    fn rules(rel: &str, text: &str, scope: Scope) -> Vec<String> {
        scan(rel, text, scope).into_iter().map(|(r, _)| r).collect()
    }

    #[test]
    fn scan_flags_and_allows() {
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"no-unwrap\"\npath = \"crates/bayes/src/x.rs\"\n\
             contains = \"audited.unwrap()\"\nreason = \"checked non-empty two lines above\"\n",
        )
        .expect("allowlist parses");
        let text = "\
fn f() {\n\
    let a = audited.unwrap();\n\
    let b = other.unwrap();\n\
    let c = list.iter().max_by(|a, b| a.partial_cmp(b).unwrap());\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn g() { let _ = in_tests.unwrap(); }\n\
}\n";
        let mut out = Vec::new();
        scan_file("crates/bayes/src/x.rs", text, Scope::Full, &allow, &mut out);
        let found: Vec<&str> = out.iter().map(|v| v.rule).collect();
        assert_eq!(found, vec!["no-unwrap", "partial-cmp-unwrap"]);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn cfg_test_in_the_middle_of_a_file_no_longer_exempts_the_tail() {
        // The old line scanner stopped at the first `#[cfg(test)]`; the
        // structural pass only skips the annotated item.
        let text = "\
#[cfg(test)]\n\
fn helper() { fine.unwrap(); }\n\
fn live() { caught.unwrap(); }\n";
        let found = scan("crates/net/src/x.rs", text, Scope::Full);
        assert_eq!(found, vec![("no-unwrap".to_string(), 3)]);
    }

    #[test]
    fn rule_triggers_inside_strings_do_not_fire() {
        let text = concat!(
            "fn f() {\n",
            "    let a = \"Instant::now and x.unwrap() and panic!(\";\n",
            "    let b = r#\"thread_rng HashMap println!\"#;\n",
            "}\n",
        );
        assert!(rules("crates/net/src/x.rs", text, Scope::Full).is_empty());
    }

    #[test]
    fn rule_triggers_inside_nested_block_comments_do_not_fire() {
        let text = "fn f() { /* outer /* x.unwrap() */ thread_rng */ }\n";
        assert!(rules("crates/net/src/x.rs", text, Scope::Full).is_empty());
    }

    #[test]
    fn println_rule_flags_libraries_not_binaries() {
        let text = "fn f() {\n    println!(\"hi\");\n    eprintln!(\"uh oh\");\n}\n";
        let found = rules("crates/obs/src/x.rs", text, Scope::Full);
        assert_eq!(found, vec!["no-println", "no-println"]);

        // The rule also covers the harness root (eval)...
        assert_eq!(rules("crates/eval/src/x.rs", text, Scope::Harness).len(), 2);

        // ...but binary targets are CLI surfaces and exempt — including
        // `src/main.rs` crates like xtask itself.
        assert!(rules("crates/eval/src/bin/repro.rs", text, Scope::Harness).is_empty());
        assert!(rules("xtask/src/main.rs", text, Scope::Full).is_empty());
    }

    #[test]
    fn instant_rule_exempts_only_the_obs_crate() {
        let text = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules("crates/bayes/src/x.rs", text, Scope::Full),
            vec!["no-instant"]
        );
        assert_eq!(
            rules("crates/eval/src/x.rs", text, Scope::Harness),
            vec!["no-instant"]
        );
        assert!(rules("crates/obs/src/profiler.rs", text, Scope::Full).is_empty());
        // Doc comments mentioning Instant don't trip the rule; neither
        // does the word inside a code comment or a string literal.
        let noise = "/// Instantiates per-run state.\nfn g() { let s = \"Instant::now\"; } // Instant::now\n";
        assert!(rules("crates/bayes/src/y.rs", noise, Scope::Full).is_empty());
    }

    #[test]
    fn rng_rule() {
        let found = rules(
            "crates/eval/src/x.rs",
            "fn f() { let mut r = rand::thread_rng(); }\n",
            Scope::Harness,
        );
        assert_eq!(found, vec!["unseeded-rng"]);
    }

    #[test]
    fn harness_scope_skips_panic_and_unwrap_rules() {
        let text = "fn f() { x.unwrap(); panic!(\"boom\"); }\n";
        assert!(rules("crates/eval/src/x.rs", text, Scope::Harness).is_empty());
        assert_eq!(rules("crates/net/src/x.rs", text, Scope::Full).len(), 2);
    }

    #[test]
    fn float_eq_detection() {
        assert_eq!(
            rules(
                "crates/net/src/x.rs",
                "fn f() { if x == 0.0 { } }",
                Scope::Full
            ),
            vec!["float-eq"]
        );
        assert_eq!(
            rules(
                "crates/net/src/x.rs",
                "fn f() { if 1.5 != y { } }",
                Scope::Full
            ),
            vec!["float-eq"]
        );
        assert_eq!(
            rules(
                "crates/net/src/x.rs",
                "fn f() { if x == -0.5 { } }",
                Scope::Full
            ),
            vec!["float-eq"]
        );
        assert!(rules(
            "crates/net/src/x.rs",
            "fn f() { if x == y { } }",
            Scope::Full
        )
        .is_empty());
        assert!(rules(
            "crates/net/src/x.rs",
            "fn f() { if n == 10 { } }",
            Scope::Full
        )
        .is_empty());
        assert!(rules(
            "crates/net/src/x.rs",
            "fn f() { if x <= 0.5 { } }",
            Scope::Full
        )
        .is_empty());
        assert!(rules(
            "crates/net/src/x.rs",
            "fn f() { match x { _ => 0.0 } }",
            Scope::Full
        )
        .is_empty());
    }

    #[test]
    fn float_index_cast_needs_bayes_scope_and_float_evidence() {
        let cast = "fn f() { let i = (x / cell).floor() as usize; }\n";
        assert_eq!(
            rules("crates/bayes/src/x.rs", cast, Scope::Full),
            vec!["float-index-cast"]
        );
        // Same text outside bayes: not an index-cast site.
        assert!(rules("crates/net/src/x.rs", cast, Scope::Full).is_empty());
        // No float evidence on the line: plain integer cast, fine.
        assert!(rules(
            "crates/bayes/src/x.rs",
            "fn f() { let i = count as usize; }\n",
            Scope::Full
        )
        .is_empty());
    }

    #[test]
    fn hashmap_rule_flags_types_not_strings() {
        let text = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        assert_eq!(
            rules("crates/bayes/src/x.rs", text, Scope::Full),
            vec!["no-hashmap-iter", "no-hashmap-iter"]
        );
        assert!(rules(
            "crates/bayes/src/x.rs",
            "fn f() { let s = \"HashMap\"; } // HashMap\n",
            Scope::Full
        )
        .is_empty());
        // BTreeMap is the prescribed replacement and passes.
        assert!(rules(
            "crates/bayes/src/x.rs",
            "use std::collections::BTreeMap;\n",
            Scope::Full
        )
        .is_empty());
    }

    #[test]
    fn atomic_ordering_audit() {
        // Relaxed and SeqCst are flagged; Acquire/Release pass.
        assert_eq!(
            rules(
                "crates/net/src/x.rs",
                "fn f() { C.fetch_add(1, Ordering::Relaxed); }\n",
                Scope::Full
            ),
            vec!["atomic-ordering-audit"]
        );
        assert_eq!(
            rules(
                "crates/net/src/x.rs",
                "fn f() { C.store(1, Ordering::SeqCst); }\n",
                Scope::Full
            ),
            vec!["atomic-ordering-audit"]
        );
        assert!(rules(
            "crates/net/src/x.rs",
            "fn f() { C.store(1, Ordering::Release); let v = C.load(Ordering::Acquire); }\n",
            Scope::Full
        )
        .is_empty());
        // An atomic call that does not name an Ordering (variant smuggled
        // in via `use Ordering::Relaxed`) is flagged at the call.
        assert_eq!(
            rules(
                "crates/net/src/x.rs",
                "fn f() { C.load(Relaxed); }\n",
                Scope::Full
            ),
            vec!["atomic-ordering-audit"]
        );
        // Deprecated API.
        assert_eq!(
            rules(
                "crates/net/src/x.rs",
                "fn f() { C.compare_and_swap(0, 1, Ordering::AcqRel); }\n",
                Scope::Full
            ),
            vec!["atomic-ordering-audit"]
        );
        // Harness scope still audits atomics.
        assert_eq!(
            rules(
                "crates/eval/src/x.rs",
                "fn f() { C.load(Relaxed); }\n",
                Scope::Harness
            ),
            vec!["atomic-ordering-audit"]
        );
        // Non-atomic `.load(...)` calls with an Ordering-free argument
        // list are indistinguishable lexically and must be allowlisted;
        // `Allowlist::load(path)` (no dot receiver) is not flagged.
        assert!(rules(
            "crates/net/src/x.rs",
            "fn f() { let a = Allowlist::load(path); }\n",
            Scope::Full
        )
        .is_empty());
    }

    #[test]
    fn unsafe_needs_a_safety_comment() {
        let bare = "fn f() { unsafe { core(); } }\n";
        assert_eq!(
            rules("crates/net/src/x.rs", bare, Scope::Full),
            vec!["unsafe-safety-comment"]
        );
        let justified =
            "// SAFETY: the latch is drained before return.\nfn f() { unsafe { core(); } }\n";
        // Comment directly above the line: the usual block form.
        let above = "fn f() {\n    // SAFETY: slot was Some above.\n    unsafe { core(); }\n}\n";
        assert!(rules("crates/net/src/x.rs", justified, Scope::Full).is_empty());
        assert!(rules("crates/net/src/x.rs", above, Scope::Full).is_empty());
        // Doc `# Safety` headings on unsafe fns count.
        let doc = "/// Does a thing.\n///\n/// # Safety\n///\n/// Caller must pin the frame.\nunsafe fn g() {}\n";
        assert!(rules("crates/net/src/x.rs", doc, Scope::Full).is_empty());
        // A non-safety comment above does not count.
        let unrelated = "// speeds things up\nfn f() { unsafe { core(); } }\n";
        assert_eq!(
            rules("crates/net/src/x.rs", unrelated, Scope::Full),
            vec!["unsafe-safety-comment"]
        );
        // Attributes between the comment and the item are transparent.
        let with_attr = "// SAFETY: repr(C) layout is pinned.\n#[inline]\nunsafe fn g() {}\n";
        assert!(rules("crates/net/src/x.rs", with_attr, Scope::Full).is_empty());
    }

    #[test]
    fn lossy_cast_audit_scopes_to_numeric_crates() {
        let text = "fn f() { let x = big as u32; }\n";
        assert_eq!(
            rules("crates/bayes/src/x.rs", text, Scope::Full),
            vec!["lossy-cast-audit"]
        );
        assert_eq!(
            rules("crates/core/src/x.rs", text, Scope::Full),
            vec!["lossy-cast-audit"]
        );
        assert!(rules("crates/net/src/x.rs", text, Scope::Full).is_empty());
        // Widening casts pass.
        assert!(rules(
            "crates/core/src/x.rs",
            "fn f() { let x = small as u64; }\n",
            Scope::Full
        )
        .is_empty());
        // Float→index with evidence resolves to the sharper bayes rule.
        assert_eq!(
            rules(
                "crates/bayes/src/x.rs",
                "fn f() { let i = x.floor() as i32; }\n",
                Scope::Full
            ),
            vec!["float-index-cast"]
        );
    }
}
