//! The rule engine: per-rule path scoping, inline waivers, and the five
//! workspace invariants.
//!
//! Rules match on the token stream produced by [`crate::lexer`] — never
//! on raw text — so string/comment contents can't trigger them. Each
//! rule carries its own include/exclude path lists (workspace-relative,
//! `/`-separated prefixes; a full file path is a valid prefix), chosen
//! to encode *where the invariant holds* rather than a global on/off:
//! wall-clock reads are fine in the Threaded backend's measurement
//! sites but not in the decision paths that must replay identically.
//!
//! # Waivers
//!
//! A finding is silenced by a justified waiver comment on the same
//! line, or on the line directly above the offending one:
//!
//! ```text
//! // s2c2-allow: no-panic-paths -- engine invariant: job is resident
//! let job = self.resident.get_mut(&id).expect("resident job");
//! ```
//!
//! The justification after `--` is mandatory; a waiver without one (or
//! naming an unknown rule) is itself a deny-level `waiver-syntax`
//! finding, so waivers can't rot into blanket suppressions.

use crate::lexer::{lex, test_region_mask, Token, TokenKind};

/// Whether a finding gates `check`'s exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails `check` unless waived.
    Deny,
    /// Advisory: reported, never fails the build.
    Warn,
}

/// One rule violation (or advisory) at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that produced this finding (`no-wall-clock`, …).
    pub rule: &'static str,
    /// Deny findings gate CI; Warn findings are advisory.
    pub severity: Severity,
    /// What was matched, specifically.
    pub message: String,
    /// How to fix it (or how to waive it).
    pub help: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// `true` when a justified waiver covers this finding.
    pub waived: bool,
    /// The waiver's justification, when waived.
    pub justification: Option<String>,
}

/// One `unsafe` occurrence, for the machine-readable audit inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Whether a `// SAFETY:` comment is attached (same line or the two
    /// lines above).
    pub has_safety: bool,
    /// The token following `unsafe` (`fn`, `{`, `impl`, …) — a cheap
    /// hint at what kind of unsafe site this is.
    pub head: String,
}

/// Static description of one rule: identity, guidance, and scope.
pub struct RuleSpec {
    /// Stable rule name, used in diagnostics and waiver comments.
    pub name: &'static str,
    /// One-line description for `report`.
    pub summary: &'static str,
    /// Fix guidance appended to every finding.
    pub help: &'static str,
    /// Path prefixes the rule applies to.
    pub include: &'static [&'static str],
    /// Path prefixes carved back out of `include`.
    pub exclude: &'static [&'static str],
    /// Most rules skip `#[cfg(test)]` regions and `tests/` paths; the
    /// unsafe audit deliberately covers them too.
    pub scan_tests: bool,
}

impl RuleSpec {
    /// Does this rule apply to `path` (workspace-relative)?
    #[must_use]
    pub fn applies_to(&self, path: &str) -> bool {
        self.include.iter().any(|p| path.starts_with(p))
            && !self.exclude.iter().any(|p| path.starts_with(p))
    }
}

/// Synthetic rule name for malformed waiver comments.
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// The rule catalog. Order is presentation order in `report`.
#[must_use]
pub fn rules() -> &'static [RuleSpec] {
    &[
        RuleSpec {
            name: "no-wall-clock",
            summary: "wall-clock reads banned in deterministic decision paths",
            help: "decision paths must use the virtual clock; real time is allowed only in \
                   the designated measurement sites (engine/backend.rs, cluster/threaded.rs)",
            include: &[
                "crates/serve/src/",
                "crates/core/src/",
                "crates/telemetry/src/",
            ],
            // The Threaded backend's phase_wall measurement sites are the
            // sanctioned place to read real time.
            exclude: &["crates/serve/src/engine/backend.rs"],
            scan_tests: false,
        },
        RuleSpec {
            name: "no-unordered-iteration",
            summary: "HashMap/HashSet banned in engine and telemetry-emitting paths",
            help: "iteration order feeds the deterministic event/trace streams; use \
                   BTreeMap/BTreeSet instead",
            include: &[
                "crates/serve/src/",
                "crates/telemetry/src/",
                "crates/core/src/",
            ],
            exclude: &[],
            scan_tests: false,
        },
        RuleSpec {
            name: "no-partial-float-order",
            summary: "partial_cmp on float keys banned workspace-wide outside tests",
            help: "partial_cmp().unwrap() panics on NaN and its Option detour invites \
                   asymmetric fallbacks; use f64::total_cmp",
            include: &["crates/", "src/", "examples/", "tests/"],
            exclude: &[],
            scan_tests: false,
        },
        RuleSpec {
            name: "no-panic-paths",
            summary: "unwrap/expect/panic!/unreachable!/indexing flagged in serve non-test code",
            help: "prefer a typed ServeError (or a justified waiver naming the invariant \
                   that makes the panic unreachable)",
            include: &["crates/serve/src/"],
            exclude: &[],
            scan_tests: false,
        },
        RuleSpec {
            name: "unsafe-audit",
            summary: "every unsafe block (vendored shims included) carries a SAFETY: comment",
            help: "document the invariant that makes the block sound in a `// SAFETY:` \
                   comment directly above it",
            include: &["crates/", "src/", "examples/", "tests/", "vendor/"],
            exclude: &[],
            scan_tests: true,
        },
        // --- Semantic rules (implemented in crate::semantic over the
        // item tree and call graph; listed here so waivers naming them
        // parse and `report` documents them). Their scoping lives in
        // crate::semantic, so include/exclude here are documentation.
        RuleSpec {
            name: "exhaustive-event-match",
            summary: "matches over registered engine enums list every variant, no catch-alls",
            help: "list every variant explicitly so adding one forces this site to be revisited",
            include: &[
                "crates/serve/src/",
                "crates/telemetry/src/",
                "crates/core/src/",
                "crates/bench/src/",
            ],
            exclude: &[],
            scan_tests: false,
        },
        RuleSpec {
            name: "panic-reachability",
            summary: "no call path from a serve public entry point reaches a panic site",
            help: "return a typed error along the path, or waive at the site naming the \
                   invariant that makes the panic unreachable",
            include: &["crates/", "src/"],
            exclude: &["crates/analysis/", "vendor/"],
            scan_tests: false,
        },
        RuleSpec {
            name: "unordered-float-reduction",
            summary: "f64 sum/product/fold chains must have provably order-stable sources",
            help: "root the chain in a slice/Vec/BTree (or annotate the binding) so \
                   order-stability is provable",
            include: &["crates/", "src/"],
            exclude: &["vendor/"],
            scan_tests: false,
        },
        RuleSpec {
            name: "stale-waiver",
            summary: "waivers whose covered lines no longer trigger their rule are findings",
            help: "delete the waiver; resurrect it only with a live finding to justify",
            include: &["crates/", "src/", "examples/", "tests/"],
            exclude: &[],
            scan_tests: true,
        },
        RuleSpec {
            name: "api-surface-audit",
            summary: "unreferenced pub items and unresolved facade re-exports",
            help: "re-export from the facade, demote to pub(crate), or delete",
            include: &["crates/", "src/"],
            exclude: &["vendor/"],
            scan_tests: false,
        },
    ]
}

/// Looks up a rule by name.
#[must_use]
pub fn rule_by_name(name: &str) -> Option<&'static RuleSpec> {
    rules().iter().find(|r| r.name == name)
}

/// Everything the engine learned about one source file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// All findings, waived ones included (callers filter).
    pub findings: Vec<Finding>,
    /// Every `unsafe` occurrence, for the audit inventory.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Parsed waivers with their coverage spans and usage flags. The
    /// semantic pass marks further usage and turns the still-unused
    /// ones into `stale-waiver` findings.
    pub waivers: Vec<WaiverInfo>,
}

/// A parsed `// s2c2-allow: <rule> -- <justification>` comment.
#[derive(Debug, Clone)]
pub struct WaiverInfo {
    /// Rule the waiver names.
    pub rule: String,
    /// Mandatory justification text.
    pub justification: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Last line the waiver covers (its own line, or the next code line
    /// when the comment stands alone above the code).
    pub covers_to: u32,
    /// Whether any finding was silenced by this waiver.
    pub used: bool,
}

const WAIVER_PREFIX: &str = "s2c2-allow:";

/// Extracts waivers from comment tokens; malformed ones become
/// `waiver-syntax` findings.
fn parse_waivers(tokens: &[Token], file: &str, findings: &mut Vec<Finding>) -> Vec<WaiverInfo> {
    let mut waivers = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_comment() {
            continue;
        }
        let body = tok
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix(WAIVER_PREFIX) else {
            continue;
        };
        let (rule_part, justification) = match rest.split_once("--") {
            Some((r, j)) => (r.trim(), j.trim().trim_end_matches("*/").trim()),
            None => (rest.trim(), ""),
        };
        let known = rule_by_name(rule_part).is_some();
        if !known || justification.is_empty() {
            let why = if known {
                "missing justification (`-- <why>`)"
            } else {
                "unknown rule name"
            };
            findings.push(Finding {
                rule: WAIVER_SYNTAX,
                severity: Severity::Deny,
                message: format!("malformed waiver: {why}"),
                help: "write `// s2c2-allow: <rule> -- <justification>` with a real reason",
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                waived: false,
                justification: None,
            });
            continue;
        }
        // A standalone waiver line covers the next line that has code;
        // a trailing waiver covers only its own line.
        let has_code_before_on_line = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let covers_to = if has_code_before_on_line {
            tok.line
        } else {
            tokens
                .iter()
                .filter(|t| !t.is_comment() && t.line > tok.line)
                .map(|t| t.line)
                .min()
                .unwrap_or(tok.line)
        };
        waivers.push(WaiverInfo {
            rule: rule_part.to_string(),
            justification: justification.to_string(),
            line: tok.line,
            covers_to,
            used: false,
        });
    }
    waivers
}

/// Runs every applicable rule over one file.
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let tokens = lex(src);
    let test_mask = test_region_mask(&tokens);
    let path_is_test = is_test_path(path);

    let mut findings = Vec::new();
    let mut waivers = parse_waivers(&tokens, path, &mut findings);

    // Indices of non-comment tokens, the stream rules actually match on.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let mut unsafe_sites = Vec::new();
    for rule in rules() {
        if !rule.applies_to(path) {
            continue;
        }
        if !rule.scan_tests && path_is_test {
            continue;
        }
        let mut raw = match rule.name {
            "no-wall-clock" => match_wall_clock(&tokens, &code),
            "no-unordered-iteration" => match_unordered(&tokens, &code),
            "no-partial-float-order" => match_partial_cmp(&tokens, &code),
            "no-panic-paths" => match_panic_paths(&tokens, &code),
            "unsafe-audit" => match_unsafe(&tokens, &code, path, &mut unsafe_sites),
            _ => Vec::new(),
        };
        raw.retain(|(idx, _, _)| rule.scan_tests || !test_mask[*idx]);
        for (idx, severity, message) in raw {
            let tok = &tokens[idx];
            let waiver = waivers
                .iter_mut()
                .find(|w| w.rule == rule.name && tok.line >= w.line && tok.line <= w.covers_to);
            let (waived, justification) = match waiver {
                Some(w) => {
                    w.used = true;
                    (true, Some(w.justification.clone()))
                }
                None => (false, None),
            };
            findings.push(Finding {
                rule: rule.name,
                severity,
                message,
                help: rule.help,
                file: path.to_string(),
                line: tok.line,
                col: tok.col,
                waived,
                justification,
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    FileAnalysis {
        findings,
        unsafe_sites,
        waivers,
    }
}

/// Paths that are test-only by construction.
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.ends_with("/tests.rs")
}

type RawFinding = (usize, Severity, String);

fn prev_code<'t>(tokens: &'t [Token], code: &[usize], ci: usize) -> Option<&'t Token> {
    ci.checked_sub(1).map(|p| &tokens[code[p]])
}

fn next_code<'t>(tokens: &'t [Token], code: &[usize], ci: usize) -> Option<&'t Token> {
    code.get(ci + 1).map(|&i| &tokens[i])
}

fn match_wall_clock(tokens: &[Token], code: &[usize]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            out.push((
                ti,
                Severity::Deny,
                format!(
                    "wall-clock type `{}` in a deterministic decision path",
                    t.text
                ),
            ));
        } else if t.text == "time" {
            // `std :: time` — the module path itself.
            let colons = ci >= 2
                && prev_code(tokens, code, ci).is_some_and(|p| p.kind == TokenKind::Punct(':'))
                && tokens[code[ci - 2]].kind == TokenKind::Punct(':');
            let from_std = ci >= 3 && tokens[code[ci - 3]].text == "std";
            if colons && from_std {
                out.push((
                    ti,
                    Severity::Deny,
                    "`std::time` import in a deterministic decision path".to_string(),
                ));
            }
        }
    }
    out
}

fn match_unordered(tokens: &[Token], code: &[usize]) -> Vec<RawFinding> {
    code.iter()
        .filter_map(|&ti| {
            let t = &tokens[ti];
            (t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet")).then(
                || {
                    (
                        ti,
                        Severity::Deny,
                        format!(
                            "`{}` in an order-sensitive path (iteration order is \
                             nondeterministic)",
                            t.text
                        ),
                    )
                },
            )
        })
        .collect()
}

fn match_partial_cmp(tokens: &[Token], code: &[usize]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        if t.kind != TokenKind::Ident || t.text != "partial_cmp" {
            continue;
        }
        // Calls only: `.partial_cmp(` and UFCS `PartialOrd::partial_cmp(`.
        // The mandatory `fn partial_cmp` inside a PartialOrd impl has
        // `fn` before it and is not a call.
        let is_call = prev_code(tokens, code, ci)
            .is_some_and(|p| matches!(p.kind, TokenKind::Punct('.') | TokenKind::Punct(':')));
        if is_call {
            out.push((
                ti,
                Severity::Deny,
                "`partial_cmp` call on float keys".to_string(),
            ));
        }
    }
    out
}

fn match_panic_paths(tokens: &[Token], code: &[usize]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        match t.kind {
            TokenKind::Ident
                if (t.text == "unwrap" || t.text == "expect")
                    && prev_code(tokens, code, ci)
                        .is_some_and(|p| p.kind == TokenKind::Punct('.')) =>
            {
                out.push((
                    ti,
                    Severity::Deny,
                    format!("`.{}()` in non-test serve code", t.text),
                ));
            }
            TokenKind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && next_code(tokens, code, ci)
                    .is_some_and(|n| n.kind == TokenKind::Punct('!')) =>
            {
                out.push((
                    ti,
                    Severity::Deny,
                    format!("`{}!` in non-test serve code", t.text),
                ));
            }
            TokenKind::Punct('[') => {
                // Postfix indexing: an expression tail directly before
                // the bracket. Type positions (`[f64; 3]`), attributes
                // (`#[…]`), and macro brackets (`vec![…]`) have
                // punctuation there instead.
                let indexes_expr = prev_code(tokens, code, ci).is_some_and(|p| {
                    matches!(
                        p.kind,
                        TokenKind::Ident | TokenKind::Punct(')') | TokenKind::Punct(']')
                    ) && !matches!(
                        p.text.as_str(),
                        // Keyword tails that precede `[…]` array/slice
                        // *expressions*, not indexing.
                        "return" | "in" | "else" | "match" | "if" | "mut" | "dyn" | "as" | "let"
                    )
                });
                if indexes_expr {
                    out.push((
                        ti,
                        Severity::Warn,
                        "direct indexing can panic; prefer get()/first()/split-at APIs".to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

fn match_unsafe(
    tokens: &[Token],
    code: &[usize],
    path: &str,
    sites: &mut Vec<UnsafeSite>,
) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        // A SAFETY: comment counts when it trails the same line or sits
        // on one of the two lines directly above (allowing one line of
        // attribute or signature between comment and block).
        let has_safety = tokens.iter().any(|c| {
            c.is_comment() && c.text.contains("SAFETY:") && c.line + 2 >= t.line && c.line <= t.line
        });
        sites.push(UnsafeSite {
            file: path.to_string(),
            line: t.line,
            col: t.col,
            has_safety,
            head: next_code(tokens, code, ci)
                .map(|n| n.text.clone())
                .unwrap_or_default(),
        });
        if !has_safety {
            out.push((
                ti,
                Severity::Deny,
                "`unsafe` without a `// SAFETY:` comment".to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deny(path: &str, src: &str) -> Vec<Finding> {
        analyze_source(path, src)
            .findings
            .into_iter()
            .filter(|f| f.severity == Severity::Deny && !f.waived)
            .collect()
    }

    #[test]
    fn scoping_is_per_rule() {
        let src = "use std::time::Instant;\n";
        // Banned in a decision path…
        assert!(!deny("crates/serve/src/engine/core.rs", src).is_empty());
        // …allowed in the designated measurement site…
        assert!(deny("crates/serve/src/engine/backend.rs", src).is_empty());
        // …and out of scope elsewhere.
        assert!(deny("crates/cluster/src/threaded.rs", src).is_empty());
    }

    #[test]
    fn waiver_on_line_above_silences_and_justifies() {
        let src = "// s2c2-allow: no-unordered-iteration -- keyed lookups only, never iterated\n\
                   use std::collections::HashMap;\n";
        let out = analyze_source("crates/serve/src/engine/core.rs", src);
        let f = out
            .findings
            .iter()
            .find(|f| f.rule == "no-unordered-iteration")
            .expect("finding recorded");
        assert!(f.waived);
        assert_eq!(
            f.justification.as_deref(),
            Some("keyed lookups only, never iterated")
        );
    }

    #[test]
    fn waiver_without_justification_is_a_finding() {
        let src = "// s2c2-allow: no-unordered-iteration\nuse std::collections::HashMap;\n";
        let out = deny("crates/serve/src/engine/core.rs", src);
        assert!(out.iter().any(|f| f.rule == WAIVER_SYNTAX));
        // And the un-justified waiver does not silence the finding.
        assert!(out.iter().any(|f| f.rule == "no-unordered-iteration"));
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_silence() {
        let src = "// s2c2-allow: no-wall-clock -- wrong rule\n\
                   use std::collections::HashMap;\n";
        let out = deny("crates/serve/src/engine/core.rs", src);
        assert!(out.iter().any(|f| f.rule == "no-unordered-iteration"));
    }

    #[test]
    fn test_regions_are_skipped_except_for_unsafe_audit() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        assert!(deny("crates/serve/src/event.rs", src).is_empty());
        let src2 = "#[cfg(test)]\nmod tests {\n  fn t() { unsafe { std::hint::unreachable_unchecked() } }\n}\n";
        let out = analyze_source("crates/coding/src/lib.rs", src2);
        assert!(out.findings.iter().any(|f| f.rule == "unsafe-audit"));
        assert_eq!(out.unsafe_sites.len(), 1);
    }

    #[test]
    fn partial_cmp_definition_is_not_a_call() {
        let src = "impl PartialOrd for X {\n  fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) }\n}\n";
        assert!(deny("crates/serve/src/event.rs", src).is_empty());
        let bad = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert!(deny("crates/core/src/alloc.rs", bad)
            .iter()
            .any(|f| f.rule == "no-partial-float-order"));
    }

    #[test]
    fn indexing_is_warn_not_deny() {
        let src = "fn f(v: &[f64]) -> f64 { v[0] }\n";
        let out = analyze_source("crates/serve/src/shared_alloc.rs", src);
        let idx: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == "no-panic-paths")
            .collect();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx[0].severity, Severity::Warn);
        // Array types and attributes do not look like indexing.
        let clean =
            "#[derive(Debug)]\nstruct S { xs: [f64; 3] }\nfn g() -> Vec<u8> { vec![0; 4] }\n";
        assert!(analyze_source("crates/serve/src/metrics.rs", clean)
            .findings
            .is_empty());
    }

    #[test]
    fn unsafe_with_safety_comment_is_inventoried_but_clean() {
        let src = "// SAFETY: the slice is checked non-empty above\nlet x = unsafe { p.read() };\n";
        let out = analyze_source("vendor/crossbeam/src/lib.rs", src);
        assert!(out
            .findings
            .iter()
            .all(|f| f.rule != "unsafe-audit" || f.waived));
        assert_eq!(out.unsafe_sites.len(), 1);
        assert!(out.unsafe_sites[0].has_safety);
    }
}
