//! The semantic pass: workspace-level rules over item trees and the
//! call graph.
//!
//! Where [`crate::rules`] matches token shapes one file at a time, this
//! module sees the whole workspace at once: every enum definition, every
//! `match`, every function and its callees. Five rules live here:
//!
//! * `exhaustive-event-match` — a `match` whose arms name a registered
//!   engine enum may not carry an unguarded catch-all arm outside tests,
//!   and (when it matches the enum directly) must name every variant.
//!   Adding a variant then breaks the build of every interpreter instead
//!   of silently falling through a `_ =>`.
//! * `panic-reachability` — may-panic constructs propagate through the
//!   call graph; any path from a serve-engine public entry point to an
//!   unwaived panic site is a deny finding *at the site*, whichever
//!   crate it lives in.
//! * `unordered-float-reduction` — an `f64` `sum`/`product`/`fold`
//!   whose iterator chain is rooted in a hash container is a deny
//!   finding anywhere; a chain the item tree cannot prove order-stable
//!   is advisory inside the determinism-critical crates.
//! * `stale-waiver` — a justified waiver that no longer covers any
//!   finding of its rule is itself a deny finding, so the waiver
//!   inventory can only shrink.
//! * `api-surface-audit` — unrestricted `pub` items no other workspace
//!   file references, plus facade/prelude re-exports that do not
//!   resolve to any workspace item, are deny findings; inventory
//!   exported to `results/api_surface.json`.

use crate::call_graph::{self, CallGraph, FileForGraph};
use crate::item_tree::{self, ItemTree};
use crate::lexer::TokenKind;
use crate::rules::{analyze_source, FileAnalysis, Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Engine enums whose `match` sites must stay exhaustive. Adding an enum
/// here makes every wildcard interpreter arm a finding.
#[must_use]
pub fn registered_enums() -> &'static [&'static str] {
    &[
        "BackendKind",
        "BatchPolicy",
        "EventKind",
        "PipelinePolicy",
        "QueuePolicy",
        "SchedulerMode",
        "TraceEventKind",
    ]
}

/// Path prefixes where event-interpreting matches live (engine core,
/// recovery, exporters, rung counters).
const EXHAUSTIVE_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/telemetry/src/",
    "crates/core/src/",
    "crates/bench/src/",
];

/// Files that participate in the call graph: workspace crates only —
/// vendored shims keep their own contracts, and the linter does not
/// chase itself.
const GRAPH_SCOPE: &[&str] = &["crates/", "src/"];
const GRAPH_EXCLUDE: &[&str] = &["crates/analysis/", "vendor/"];

/// Serve's public surface is the reachability root set.
const ENTRY_PREFIX: &str = "crates/serve/src/";

/// Crates whose float reductions must be provably order-stable for the
/// advisory tier (deny-tier hash roots are flagged everywhere).
const FLOAT_STRICT_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/telemetry/src/",
    "crates/core/src/",
];

/// Crates inventoried by the API-surface audit.
const API_SCOPE: &[&str] = &["crates/", "src/"];
const API_EXCLUDE: &[&str] = &["vendor/"];

/// Aggregate numbers for `report` and `check --json`.
#[derive(Debug, Default, Clone)]
pub struct SemanticStats {
    /// Files parsed into item trees.
    pub files: usize,
    /// Functions in the call graph.
    pub graph_fns: usize,
    /// Resolved call edges.
    pub graph_edges: usize,
    /// Serve-engine public entry points.
    pub entry_points: usize,
    /// Unwaived may-panic sites in graph functions.
    pub panic_sites: usize,
    /// Panic sites reachable from an entry point.
    pub reachable_panic_sites: usize,
    /// Registered enums with a parsed definition.
    pub registered_enums: usize,
    /// Non-test matches referencing a registered enum.
    pub matches_over_registered: usize,
    /// Unrestricted `pub` items inventoried.
    pub pub_items: usize,
    /// Inventoried items no other file references.
    pub unreferenced_pub_items: usize,
    /// Re-export leaves checked.
    pub reexports: usize,
}

/// One row of the API-surface inventory.
#[derive(Debug, Clone)]
pub struct ApiItem {
    /// Item name.
    pub name: String,
    /// Item kind tag (`fn`, `struct`, …).
    pub kind: &'static str,
    /// Defining file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Whether any *other* workspace file mentions the name.
    pub referenced: bool,
}

/// One checked re-export leaf.
#[derive(Debug, Clone)]
pub struct ApiReExport {
    /// Re-exported source-side name (`*` for globs).
    pub name: String,
    /// `::`-joined path prefix.
    pub path: String,
    /// File containing the `pub use`.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Whether the leaf resolves to a known workspace item/module/crate.
    pub resolved: bool,
}

/// The API-surface inventory exported to `results/api_surface.json`.
#[derive(Debug, Default)]
pub struct ApiSurface {
    /// All inventoried `pub` items.
    pub items: Vec<ApiItem>,
    /// All checked re-export leaves.
    pub reexports: Vec<ApiReExport>,
}

/// Result of the combined token + semantic analysis of a file set.
#[derive(Debug, Default)]
pub struct WorkspaceAnalysis {
    /// All findings (token and semantic), waived included.
    pub findings: Vec<Finding>,
    /// Unsafe inventory from the token pass.
    pub unsafe_sites: Vec<crate::rules::UnsafeSite>,
    /// Files analyzed.
    pub files: usize,
    /// Call-graph and audit statistics.
    pub stats: SemanticStats,
    /// API-surface inventory.
    pub api: ApiSurface,
}

fn in_scope(path: &str, include: &[&str], exclude: &[&str]) -> bool {
    include.iter().any(|p| path.starts_with(p)) && !exclude.iter().any(|p| path.starts_with(p))
}

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.ends_with("/tests.rs")
}

/// Runs the full pass (token rules, then semantic rules, then the stale
/// waiver sweep) over in-memory `(path, source)` pairs. This is the
/// engine behind [`crate::scan::scan_workspace`]; tests drive it with
/// synthetic workspaces.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze_workspace_sources(files: &[(String, String)]) -> WorkspaceAnalysis {
    let mut out = WorkspaceAnalysis {
        files: files.len(),
        ..WorkspaceAnalysis::default()
    };

    // Token pass (also parses waivers).
    let mut per_file: Vec<FileAnalysis> = files
        .iter()
        .map(|(path, src)| analyze_source(path, src))
        .collect();

    // Item trees for every file.
    let trees: Vec<ItemTree> = files.iter().map(|(_, src)| item_tree::parse(src)).collect();
    out.stats.files = trees.len();

    // Registered enum variant lists, from wherever the definitions live.
    let mut enum_defs: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (tree, (path, _)) in trees.iter().zip(files) {
        if is_test_path(path) {
            continue;
        }
        for def in &tree.enums {
            if registered_enums().contains(&def.name.as_str()) {
                enum_defs
                    .entry(
                        registered_enums()
                            .iter()
                            .find(|n| **n == def.name)
                            .copied()
                            .unwrap_or(""),
                    )
                    .or_insert_with(|| def.variants.clone());
            }
        }
    }
    out.stats.registered_enums = enum_defs.len();

    // --- Rule 1: exhaustive-event-match --------------------------------
    for ((path, _), tree) in files.iter().zip(&trees) {
        if !in_scope(path, EXHAUSTIVE_SCOPE, &[]) || is_test_path(path) {
            continue;
        }
        for m in &tree.matches {
            if m.in_test {
                continue;
            }
            let refs = item_tree::arm_enum_refs(tree, m, registered_enums());
            if refs.is_empty() {
                continue;
            }
            out.stats.matches_over_registered += 1;
            let mut catch_all_arm = None;
            for arm in &m.arms {
                if item_tree::is_catch_all(tree, arm) {
                    catch_all_arm = Some(arm);
                    break;
                }
            }
            if let Some(arm) = catch_all_arm {
                let (s, _) = arm.pattern;
                let tok = tree.tok(s);
                push_semantic(
                    &mut out.findings,
                    &mut per_file,
                    files,
                    "exhaustive-event-match",
                    Severity::Deny,
                    format!(
                        "catch-all arm in a match over registered enum{} {} — a new \
                         variant would fall through silently",
                        if refs.len() > 1 { "s" } else { "" },
                        refs.join(", ")
                    ),
                    "list every variant explicitly so adding one forces this site to be revisited",
                    path,
                    tok.line,
                    tok.col,
                );
                continue;
            }
            // Direct matches (every arm pattern starts `Enum::…`) also get
            // variant-coverage checking, which is what lets a fixture with
            // a deleted arm fail without ever invoking rustc.
            for name in &refs {
                let Some(variants) = enum_defs.get(name.as_str()) else {
                    continue;
                };
                let direct = m.arms.iter().all(|arm| {
                    let (s, e) = arm.pattern;
                    e > s && {
                        let t = tree.tok(s);
                        t.kind == TokenKind::Ident && registered_enums().contains(&t.text.as_str())
                    }
                });
                if !direct {
                    continue;
                }
                let covered = item_tree::arm_variants(tree, m, name);
                let missing: Vec<&String> =
                    variants.iter().filter(|v| !covered.contains(v)).collect();
                if !missing.is_empty() {
                    push_semantic(
                        &mut out.findings,
                        &mut per_file,
                        files,
                        "exhaustive-event-match",
                        Severity::Deny,
                        format!(
                            "match over {name} misses variant{} {}",
                            if missing.len() > 1 { "s" } else { "" },
                            missing
                                .iter()
                                .map(|s| s.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                        "handle every variant of a registered engine enum explicitly",
                        path,
                        m.line,
                        m.col,
                    );
                }
            }
        }
    }

    // --- Rule 2: panic-reachability ------------------------------------
    {
        let mut views: Vec<FileForGraph<'_>> = Vec::new();
        for ((path, _), tree) in files.iter().zip(&trees) {
            if !in_scope(path, GRAPH_SCOPE, GRAPH_EXCLUDE) || is_test_path(path) {
                continue;
            }
            // Sites justified under no-panic-paths are proven unreachable
            // by their waivers and do not seed; panic-reachability's own
            // waivers are applied at finding time so they count as used.
            let idx = files.iter().position(|(p, _)| p == path).unwrap_or(0);
            let waiver_lines = per_file[idx]
                .waivers
                .iter()
                .filter(|w| w.rule == "no-panic-paths")
                .map(|w| (w.line, w.covers_to))
                .collect();
            views.push(FileForGraph {
                path,
                tree,
                panic_waiver_lines: waiver_lines,
            });
        }
        let graph: CallGraph = call_graph::build(&views);
        let entries = call_graph::entry_points(&graph, ENTRY_PREFIX);
        let paths = call_graph::panic_paths(&graph, &entries);
        out.stats.graph_fns = graph.nodes.len();
        out.stats.graph_edges = graph.edge_count;
        out.stats.entry_points = entries.len();
        out.stats.panic_sites = graph.nodes.iter().map(|n| n.panic_sites.len()).sum();
        out.stats.reachable_panic_sites = paths.len();
        for p in &paths {
            let node = &graph.nodes[p.site_fn];
            let rendered = call_graph::render_path(&graph, &p.path);
            push_semantic(
                &mut out.findings,
                &mut per_file,
                files,
                "panic-reachability",
                Severity::Deny,
                format!(
                    "`{}` reachable from serve entry point: {rendered}",
                    p.site.what
                ),
                "return a typed error along this path, or waive at the site naming the \
                 invariant that makes the panic unreachable",
                &node.file,
                p.site.line,
                p.site.col,
            );
        }
    }

    // --- Rule 3: unordered-float-reduction ------------------------------
    {
        let env = TypeEnv::build(files, &trees);
        for ((path, _), tree) in files.iter().zip(&trees) {
            if !in_scope(path, GRAPH_SCOPE, &["vendor/"]) || is_test_path(path) {
                continue;
            }
            for r in find_reductions(tree, &env) {
                match r.class {
                    Orderedness::Unordered => push_semantic(
                        &mut out.findings,
                        &mut per_file,
                        files,
                        "unordered-float-reduction",
                        Severity::Deny,
                        format!(
                            "f64 `{}` over an unordered source ({}) — accumulation \
                             order is nondeterministic",
                            r.method, r.reason
                        ),
                        "collect into an order-stable container (Vec/BTreeMap) before reducing",
                        path,
                        r.line,
                        r.col,
                    ),
                    Orderedness::Unknown if in_scope(path, FLOAT_STRICT_SCOPE, &[]) => {
                        push_semantic(
                            &mut out.findings,
                            &mut per_file,
                            files,
                            "unordered-float-reduction",
                            Severity::Warn,
                            format!(
                                "f64 `{}` whose source order the item tree cannot prove \
                                 stable ({})",
                                r.method, r.reason
                            ),
                            "root the chain in a slice/Vec/BTree (or annotate the binding) so \
                             order-stability is provable",
                            path,
                            r.line,
                            r.col,
                        );
                    }
                    Orderedness::Ordered | Orderedness::Unknown => {}
                }
            }
        }
    }

    // --- Rule 5: api-surface-audit ---------------------------------------
    {
        // Which files mention which identifiers, and how often — the
        // reference index.
        let mut mentions: BTreeMap<&str, BTreeMap<usize, usize>> = BTreeMap::new();
        for (fi, tree) in trees.iter().enumerate() {
            for &ti in &tree.code {
                let t = &tree.tokens[ti];
                if t.kind == TokenKind::Ident {
                    *mentions
                        .entry(t.text.as_str())
                        .or_default()
                        .entry(fi)
                        .or_insert(0) += 1;
                }
            }
        }
        let mut known_names: BTreeSet<&str> = BTreeSet::new();
        for ((path, _), tree) in files.iter().zip(&trees) {
            if is_test_path(path) {
                continue;
            }
            for item in &tree.pub_items {
                known_names.insert(item.name.as_str());
            }
            for e in &tree.enums {
                for v in &e.variants {
                    known_names.insert(v.as_str());
                }
            }
        }
        for (fi, ((path, _), tree)) in files.iter().zip(&trees).enumerate() {
            if !in_scope(path, API_SCOPE, API_EXCLUDE) || is_test_path(path) {
                continue;
            }
            for item in &tree.pub_items {
                if !item.unrestricted || item.in_test {
                    continue;
                }
                // A mention in another file, or a second mention in the
                // defining file (the first is the definition itself),
                // counts as a reference: the audit flags only items with
                // exactly one occurrence workspace-wide.
                let referenced = mentions
                    .get(item.name.as_str())
                    .is_some_and(|fs| fs.iter().any(|(&f, &n)| f != fi || n >= 2));
                out.api.items.push(ApiItem {
                    name: item.name.clone(),
                    kind: item.kind.tag(),
                    file: path.clone(),
                    line: item.line,
                    referenced,
                });
                if !referenced {
                    push_semantic(
                        &mut out.findings,
                        &mut per_file,
                        files,
                        "api-surface-audit",
                        Severity::Deny,
                        format!(
                            "pub {} `{}` is referenced by no other workspace file",
                            item.kind.tag(),
                            item.name
                        ),
                        "re-export it from the facade, demote it to pub(crate), or delete it",
                        path,
                        item.line,
                        1,
                    );
                }
            }
            for re in &tree.reexports {
                let resolved = re.name == "*"
                    || known_names.contains(re.name.as_str())
                    || re.name.starts_with("s2c2")
                    || matches!(
                        re.name.as_str(),
                        "self" | "crate" | "std" | "core" | "alloc"
                    );
                out.api.reexports.push(ApiReExport {
                    name: re.name.clone(),
                    path: re.path.clone(),
                    file: path.clone(),
                    line: re.line,
                    resolved,
                });
                if !resolved {
                    push_semantic(
                        &mut out.findings,
                        &mut per_file,
                        files,
                        "api-surface-audit",
                        Severity::Deny,
                        format!(
                            "re-export `{}` (from `{}`) resolves to no known workspace item",
                            re.name, re.path
                        ),
                        "fix the path or drop the re-export",
                        path,
                        re.line,
                        1,
                    );
                }
            }
        }
        out.stats.pub_items = out.api.items.len();
        out.stats.unreferenced_pub_items = out.api.items.iter().filter(|i| !i.referenced).count();
        out.stats.reexports = out.api.reexports.len();
    }

    // --- Rule 4: stale-waiver (after every other rule has had its
    // chance to mark waivers used) --------------------------------------
    for ((path, _), fa) in files.iter().zip(&per_file) {
        for w in &fa.waivers {
            if w.used {
                continue;
            }
            out.findings.push(Finding {
                rule: "stale-waiver",
                severity: Severity::Deny,
                message: format!(
                    "waiver for `{}` covers no finding (lines {}..={}) — the hazard it \
                     justified is gone",
                    w.rule, w.line, w.covers_to
                ),
                help: "delete the waiver; resurrect it only with a live finding to justify",
                file: path.clone(),
                line: w.line,
                col: 1,
                waived: false,
                justification: None,
            });
        }
    }

    // Merge the token-pass output.
    for fa in per_file {
        out.findings.extend(fa.findings);
        out.unsafe_sites.extend(fa.unsafe_sites);
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// Records one semantic finding, applying any justified waiver for the
/// rule that covers the finding's line in its file.
#[allow(clippy::too_many_arguments)]
fn push_semantic(
    findings: &mut Vec<Finding>,
    per_file: &mut [FileAnalysis],
    files: &[(String, String)],
    rule: &'static str,
    severity: Severity,
    message: String,
    help: &'static str,
    path: &str,
    line: u32,
    col: u32,
) {
    let mut waived = false;
    let mut justification = None;
    if let Some(idx) = files.iter().position(|(p, _)| p == path) {
        if let Some(w) = per_file[idx]
            .waivers
            .iter_mut()
            .find(|w| w.rule == rule && line >= w.line && line <= w.covers_to)
        {
            w.used = true;
            waived = true;
            justification = Some(w.justification.clone());
        }
    }
    findings.push(Finding {
        rule,
        severity,
        message,
        help,
        file: path.to_string(),
        line,
        col,
        waived,
        justification,
    });
}

// ---------------------------------------------------------------------
// Float-reduction order analysis
// ---------------------------------------------------------------------

/// How much we know about a reduction source's iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orderedness {
    /// Provably order-stable (slice, Vec, BTree, range, …).
    Ordered,
    /// Provably hash-rooted.
    Unordered,
    /// The item tree cannot decide.
    Unknown,
}

/// One float reduction with its classification.
#[derive(Debug)]
pub struct Reduction {
    /// `sum`, `product`, or `fold`.
    pub method: String,
    /// 1-based line of the method name.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Verdict.
    pub class: Orderedness,
    /// Human-readable why.
    pub reason: String,
}

/// Workspace-wide type knowledge: struct fields and fn return types.
pub struct TypeEnv {
    /// struct name → (field → type text).
    fields: BTreeMap<String, BTreeMap<String, String>>,
    /// fn name → return-type texts seen under that name.
    returns: BTreeMap<String, Vec<String>>,
}

impl TypeEnv {
    /// Collects struct fields and fn signatures from every non-test file.
    #[must_use]
    pub fn build(files: &[(String, String)], trees: &[ItemTree]) -> Self {
        let mut fields: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        let mut returns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for ((path, _), tree) in files.iter().zip(trees) {
            if is_test_path(path) || path.starts_with("vendor/") {
                continue;
            }
            for s in &tree.structs {
                let entry = fields.entry(s.name.clone()).or_default();
                for (f, ty) in &s.fields {
                    entry.entry(f.clone()).or_insert_with(|| ty.clone());
                }
            }
            for f in &tree.fns {
                if let Some(ret) = &f.ret {
                    returns.entry(f.name.clone()).or_default().push(ret.clone());
                }
            }
        }
        TypeEnv { fields, returns }
    }

    fn field_type(&self, struct_name: &str, field: &str) -> Option<&str> {
        self.fields
            .get(struct_name)
            .and_then(|m| m.get(field))
            .map(String::as_str)
    }

    /// The classification of `name`'s return type — `None` when unknown
    /// or when same-named fns disagree.
    fn return_class(&self, name: &str) -> Option<Orderedness> {
        let rets = self.returns.get(name)?;
        let mut classes: Vec<Orderedness> = rets.iter().map(|t| classify_type(t)).collect();
        classes.dedup();
        match classes.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}

/// Classifies a type's iteration order from its text.
#[must_use]
pub fn classify_type(ty: &str) -> Orderedness {
    if ty.contains("HashMap") || ty.contains("HashSet") || ty.contains("hash_map") {
        return Orderedness::Unordered;
    }
    const ORDERED_HEADS: &[&str] = &[
        "Vec",
        "VecDeque",
        "BTreeMap",
        "BTreeSet",
        "String",
        "str",
        "Range",
        "MultiVector",
        "Matrix",
        "f64",
        "usize",
        "u64",
        "u32",
        "i64",
        "i32",
        "Option",
    ];
    let first = ty.split([' ', '<']).find(|s| !s.is_empty()).unwrap_or("");
    if first == "&" || first == "[" || ty.starts_with('[') || ty.starts_with("& [") {
        return Orderedness::Ordered;
    }
    // `& Vec < f64 >` etc: strip leading borrows/mut.
    let stripped = ty.trim_start_matches(['&', ' ']).trim_start_matches("mut ");
    let head = stripped
        .split([' ', '<'])
        .find(|s| !s.is_empty())
        .unwrap_or("");
    if head == "[" || stripped.starts_with('[') {
        return Orderedness::Ordered;
    }
    if ORDERED_HEADS.contains(&head) {
        return Orderedness::Ordered;
    }
    Orderedness::Unknown
}

/// Iterator adapters that preserve their source's order class.
const ORDER_PRESERVING: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "keys",
    "values_mut",
    "into_values",
    "into_keys",
    "drain",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "take",
    "skip",
    "take_while",
    "skip_while",
    "step_by",
    "enumerate",
    "zip",
    "chain",
    "rev",
    "copied",
    "cloned",
    "inspect",
    "peekable",
    "fuse",
    "by_ref",
    "scan",
    "windows",
    "chunks",
    "chunks_exact",
    "split",
    "lines",
    "bytes",
    "chars",
    "as_slice",
    "as_ref",
    "to_vec",
    "slice",
    "range",
    "clone",
    "to_owned",
];

/// Finds and classifies every f64 reduction in a file.
#[must_use]
pub fn find_reductions(tree: &ItemTree, env: &TypeEnv) -> Vec<Reduction> {
    let mut out = Vec::new();
    for f in &tree.fns {
        if f.in_test {
            continue;
        }
        let (start, end) = f.body;
        // Local type facts: annotated let bindings in this body, plus
        // classes inferred from unannotated initializers.
        let locals = collect_local_types(tree, start, end, f, env);
        let mut ci = start;
        while ci < end {
            let t = tree.tok(ci);
            let is_red = t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "sum" | "product" | "fold")
                && ci > start
                && tree.tok(ci - 1).kind == TokenKind::Punct('.');
            if !is_red {
                ci += 1;
                continue;
            }
            let method = t.text.clone();
            let (line, col) = (t.line, t.col);
            let Some((args_start, _args_end)) = call_args(tree, ci, end) else {
                ci += 1;
                continue;
            };
            if !reduction_is_f64(tree, ci, args_start, end, &method, &locals) {
                ci += 1;
                continue;
            }
            if method == "fold" && fold_is_order_insensitive(tree, args_start, end) {
                ci += 1;
                continue;
            }
            let (class, reason) = classify_chain(tree, env, f, &locals, ci - 1);
            out.push(Reduction {
                method,
                line,
                col,
                class,
                reason,
            });
            ci += 1;
        }
    }
    out
}

/// `let name : Type =` annotations in a body, plus fn param types. For
/// unannotated bindings, the initializer expression itself is classified
/// (running forward, so earlier bindings feed later ones) and a
/// synthetic type marker records the verdict.
fn collect_local_types(
    tree: &ItemTree,
    start: usize,
    end: usize,
    f: &crate::item_tree::FnDef,
    env: &TypeEnv,
) -> BTreeMap<String, String> {
    let mut locals: BTreeMap<String, String> = BTreeMap::new();
    for (name, ty) in &f.params {
        locals.insert(name.clone(), ty.clone());
    }
    let mut ci = start;
    while ci + 3 < end {
        if tree.tok(ci).kind == TokenKind::Ident
            && tree.tok(ci).text == "let"
            && tree.tok(ci + 1).kind == TokenKind::Ident
        {
            let mut name_i = ci + 1;
            if tree.tok(name_i).text == "mut" && tree.tok(name_i + 1).kind == TokenKind::Ident {
                name_i += 1;
            }
            if name_i + 1 < end
                && tree.tok(name_i + 1).kind == TokenKind::Punct(':')
                && name_i + 2 < end
                && tree.tok(name_i + 2).kind != TokenKind::Punct(':')
            {
                // Collect type text until `=` or `;` at depth 0.
                let mut j = name_i + 2;
                let mut depth = 0i64;
                let mut ty = String::new();
                while j < end {
                    match tree.tok(j).kind {
                        TokenKind::Punct('<') => depth += 1,
                        TokenKind::Punct('>') => depth -= 1,
                        TokenKind::Punct('=') | TokenKind::Punct(';') if depth <= 0 => break,
                        _ => {}
                    }
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(&tree.tok(j).text);
                    j += 1;
                }
                locals.insert(tree.tok(name_i).text.clone(), ty);
            } else if name_i + 1 < end && tree.tok(name_i + 1).kind == TokenKind::Punct('=') {
                // `let name = <expr> ;` — classify the initializer by
                // running the backward chain walk from the terminating
                // semicolon.
                let mut j = name_i + 2;
                let mut depth = 0i64;
                while j < end {
                    match tree.tok(j).kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                            depth += 1;
                        }
                        TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                            depth -= 1;
                        }
                        TokenKind::Punct(';') if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < end {
                    let (class, _) = classify_chain(tree, env, f, &locals, j);
                    let marker = match class {
                        Orderedness::Ordered => Some("Vec < inferred >"),
                        Orderedness::Unordered => Some("HashMap < inferred >"),
                        Orderedness::Unknown => None,
                    };
                    if let Some(m) = marker {
                        locals.insert(tree.tok(name_i).text.clone(), m.to_string());
                    }
                }
            }
        }
        ci += 1;
    }
    locals
}

/// The argument range of the call whose method name sits at `ci`
/// (skipping an optional turbofish), or `None` if not a call.
fn call_args(tree: &ItemTree, ci: usize, end: usize) -> Option<(usize, usize)> {
    let mut j = ci + 1;
    if j + 1 < end
        && tree.tok(j).kind == TokenKind::Punct(':')
        && tree.tok(j + 1).kind == TokenKind::Punct(':')
    {
        j += 2;
        if j < end && tree.tok(j).kind == TokenKind::Punct('<') {
            let mut depth = 0usize;
            while j < end {
                match tree.tok(j).kind {
                    TokenKind::Punct('<') => depth += 1,
                    TokenKind::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
    (j < end && tree.tok(j).kind == TokenKind::Punct('(')).then(|| {
        let mut depth = 0i64;
        let mut k = j;
        while k < end {
            match tree.tok(k).kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        (j + 1, k)
    })
}

/// Is this reduction provably over f64? Turbofish `::<f64>`, a float
/// fold seed, or an `f64`-annotated binding on the same statement.
fn reduction_is_f64(
    tree: &ItemTree,
    ci: usize,
    args_start: usize,
    end: usize,
    method: &str,
    locals: &BTreeMap<String, String>,
) -> bool {
    // Turbofish between name and parens.
    let mut j = ci + 1;
    if j + 2 < end
        && tree.tok(j).kind == TokenKind::Punct(':')
        && tree.tok(j + 1).kind == TokenKind::Punct(':')
        && tree.tok(j + 2).kind == TokenKind::Punct('<')
    {
        j += 2;
        let mut depth = 0usize;
        while j < end {
            match tree.tok(j).kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident if tree.tok(j).text == "f64" => return true,
                _ => {}
            }
            j += 1;
        }
        return false; // explicit non-f64 turbofish
    }
    if method == "fold" {
        // Float seed: `0.0`, `1.0f64`, `f64::…`, `-1.0`.
        let mut k = args_start;
        if k < end && tree.tok(k).kind == TokenKind::Punct('-') {
            k += 1;
        }
        if k < end {
            let t = tree.tok(k);
            if t.kind == TokenKind::Num && (t.text.contains('.') || t.text.contains("f64")) {
                return true;
            }
            if t.kind == TokenKind::Ident && t.text == "f64" {
                return true;
            }
        }
        return false;
    }
    // Bare `.sum()` / `.product()`: consult the statement's binding
    // annotation (`let total : f64 = …`), scanning back to the `let`.
    let mut k = ci;
    let mut depth = 0i64;
    while k > 0 {
        k -= 1;
        match tree.tok(k).kind {
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth += 1,
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            TokenKind::Punct(';') if depth == 0 => return false,
            TokenKind::Ident if depth == 0 && tree.tok(k).text == "let" => {
                // `let [mut] name : ty = …`
                let mut name_i = k + 1;
                if tree.tok(name_i).text == "mut" {
                    name_i += 1;
                }
                let name = &tree.tok(name_i).text;
                return locals.get(name).is_some_and(|ty| ty.contains("f64"));
            }
            _ => {}
        }
    }
    false
}

/// `fold` calls whose accumulator is max/min-style are order-insensitive
/// (float max/min are commutative and associative).
fn fold_is_order_insensitive(tree: &ItemTree, args_start: usize, end: usize) -> bool {
    let mut k = args_start;
    let mut depth = 0i64;
    while k < end {
        match tree.tok(k).kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokenKind::Ident if matches!(tree.tok(k).text.as_str(), "max" | "min") => {
                return true;
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// Walks the receiver chain backwards from `dot_ci` (the `.` before the
/// reduction name) and classifies its root.
fn classify_chain(
    tree: &ItemTree,
    env: &TypeEnv,
    f: &crate::item_tree::FnDef,
    locals: &BTreeMap<String, String>,
    dot_ci: usize,
) -> (Orderedness, String) {
    let start = f.body.0;
    // Backward walk: produce (root description, segment names applied).
    let mut segments: Vec<String> = Vec::new();
    let mut k = dot_ci; // points at `.`
    loop {
        if k == start {
            return (Orderedness::Unknown, "chain reaches body start".into());
        }
        let prev = k - 1;
        match tree.tok(prev).kind {
            TokenKind::Punct(')') => {
                // Balanced back to the opening paren.
                let mut depth = 0i64;
                let mut j = prev;
                loop {
                    match tree.tok(j).kind {
                        TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                            depth += 1;
                        }
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == start {
                        return (Orderedness::Unknown, "unbalanced chain".into());
                    }
                    j -= 1;
                }
                // A turbofish between callee and parens: skip back over
                // the balanced `< … >` to reach `name ::`.
                let mut callee_i = j; // index of `(`
                let mut turbofish: Option<String> = None;
                if j > start && tree.tok(j - 1).kind == TokenKind::Punct('>') {
                    let mut adepth = 0i64;
                    let mut q = j - 1;
                    loop {
                        match tree.tok(q).kind {
                            TokenKind::Punct('>') => adepth += 1,
                            TokenKind::Punct('<') => {
                                adepth -= 1;
                                if adepth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if q == start {
                            return (Orderedness::Unknown, "opaque chain root".into());
                        }
                        q -= 1;
                    }
                    if q >= start + 2
                        && tree.tok(q - 1).kind == TokenKind::Punct(':')
                        && tree.tok(q - 2).kind == TokenKind::Punct(':')
                    {
                        let text: Vec<String> =
                            (q + 1..j - 1).map(|x| tree.tok(x).text.clone()).collect();
                        turbofish = Some(text.join(" "));
                        callee_i = q - 2; // name sits just before `::`
                    } else {
                        return (Orderedness::Unknown, "opaque chain root".into());
                    }
                }
                // What precedes? A name → call; nothing → group.
                if callee_i > start && tree.tok(callee_i - 1).kind == TokenKind::Ident {
                    let name = tree.tok(callee_i - 1).text.clone();
                    if callee_i - 1 > start && tree.tok(callee_i - 2).kind == TokenKind::Punct('.')
                    {
                        // Method call segment; `collect` keeps its target
                        // type so the forward pass can re-root on it.
                        if name == "collect" {
                            segments.push(format!("collect:{}", turbofish.unwrap_or_default()));
                        } else {
                            segments.push(name);
                        }
                        k = callee_i - 2;
                        continue;
                    }
                    if callee_i >= start + 3
                        && tree.tok(callee_i - 2).kind == TokenKind::Punct(':')
                        && tree.tok(callee_i - 3).kind == TokenKind::Punct(':')
                        && callee_i >= start + 4
                        && tree.tok(callee_i - 4).kind == TokenKind::Ident
                    {
                        // Constructor-style path call: `Vec::new()`,
                        // `BTreeMap::from(...)`.
                        let ty = tree.tok(callee_i - 4).text.clone();
                        let class = classify_type(&ty);
                        if class != Orderedness::Unknown {
                            return apply_segments(
                                env,
                                class,
                                &format!("`{ty}::{name}` constructor"),
                                &segments,
                            );
                        }
                    }
                    // Free/path call root.
                    return finish_root_call(env, &name, &segments);
                }
                // Parenthesized group root: a range literal inside?
                let inner_has_range = (j..prev).any(|x| {
                    tree.tok(x).kind == TokenKind::Punct('.')
                        && x + 1 < prev
                        && tree.tok(x + 1).kind == TokenKind::Punct('.')
                });
                if inner_has_range {
                    return (Orderedness::Ordered, "range source".into());
                }
                return (Orderedness::Unknown, "parenthesized source".into());
            }
            TokenKind::Punct(']') => {
                // Skip back to `[`: either an indexing segment or the
                // body of a bracket macro.
                let mut depth = 0i64;
                let mut j = prev;
                loop {
                    match tree.tok(j).kind {
                        TokenKind::Punct(']') => depth += 1,
                        TokenKind::Punct('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == start {
                        return (Orderedness::Unknown, "unbalanced chain".into());
                    }
                    j -= 1;
                }
                // `vec![…]` literal root.
                if j >= start + 2
                    && tree.tok(j - 1).kind == TokenKind::Punct('!')
                    && tree.tok(j - 2).kind == TokenKind::Ident
                    && tree.tok(j - 2).text == "vec"
                {
                    return apply_segments(env, Orderedness::Ordered, "vec! literal", &segments);
                }
                // A bare `[…]` slice literal root (nothing indexable
                // before the bracket).
                let before = (j > start).then(|| tree.tok(j - 1));
                let is_literal = match before {
                    None => true,
                    Some(t) => !matches!(
                        t.kind,
                        TokenKind::Ident | TokenKind::Punct(')') | TokenKind::Punct(']')
                    ),
                };
                if is_literal {
                    return apply_segments(env, Orderedness::Ordered, "slice literal", &segments);
                }
                k = j;
                continue;
            }
            TokenKind::Ident => {
                let name = tree.tok(prev).text.clone();
                if prev > start && tree.tok(prev - 1).kind == TokenKind::Punct('.') {
                    // Field access segment: `self.report.busy_time`…
                    segments.push(format!("field:{name}"));
                    k = prev - 1;
                    continue;
                }
                if prev > start
                    && tree.tok(prev - 1).kind == TokenKind::Punct(':')
                    && prev > start + 1
                    && tree.tok(prev - 2).kind == TokenKind::Punct(':')
                {
                    // Path tail (`std::iter::once` handled via call above;
                    // a bare path root here is opaque).
                    return (Orderedness::Unknown, format!("path root `{name}`"));
                }
                // Variable root.
                return finish_root_var(tree, env, f, locals, &name, &segments);
            }
            _ => {
                return (Orderedness::Unknown, "opaque chain root".into());
            }
        }
    }
}

/// Applies the collected segments to a root class. Known adapters keep
/// the class; an unknown method re-roots the chain on its return type
/// when the workspace fn map resolves it, and otherwise degrades
/// certainty to Unknown.
fn apply_segments(
    env: &TypeEnv,
    root: Orderedness,
    root_desc: &str,
    segments: &[String],
) -> (Orderedness, String) {
    let mut class = root;
    for seg in segments.iter().rev() {
        if seg.starts_with("field:") {
            // Field accesses were already resolved during root lookup
            // when possible; an unresolved one is opaque.
            continue;
        }
        if let Some(target) = seg.strip_prefix("collect:") {
            // `collect::<T>()` re-roots the chain on its target type.
            class = if target.is_empty() {
                Orderedness::Unknown
            } else {
                classify_type(target)
            };
            continue;
        }
        if ORDER_PRESERVING.contains(&seg.as_str()) {
            continue;
        }
        // Unknown method: its return value becomes the new chain root.
        match env.return_class(seg) {
            Some(c) => class = c,
            None if class != Orderedness::Unordered => class = Orderedness::Unknown,
            None => {}
        }
    }
    (class, root_desc.to_string())
}

fn finish_root_call(env: &TypeEnv, name: &str, segments: &[String]) -> (Orderedness, String) {
    if matches!(name, "once" | "repeat" | "empty" | "successors" | "from_fn") {
        return apply_segments(
            env,
            Orderedness::Ordered,
            &format!("iterator constructor `{name}`"),
            segments,
        );
    }
    match env.return_class(name) {
        Some(c) => apply_segments(env, c, &format!("call to `{name}`"), segments),
        None => apply_segments(
            env,
            Orderedness::Unknown,
            &format!("call to `{name}` with unknown return type"),
            segments,
        ),
    }
}

fn finish_root_var(
    tree: &ItemTree,
    env: &TypeEnv,
    f: &crate::item_tree::FnDef,
    locals: &BTreeMap<String, String>,
    name: &str,
    segments: &[String],
) -> (Orderedness, String) {
    let _ = tree;
    // `self.field.…`: resolve fields through the impl type.
    if name == "self" {
        let mut current = f.impl_type.clone();
        let mut last_ty: Option<String> = None;
        for seg in segments.iter().rev() {
            let Some(field) = seg.strip_prefix("field:") else {
                break;
            };
            let Some(ty) = current
                .as_deref()
                .and_then(|s| env.field_type(s, field))
                .map(String::from)
            else {
                return apply_segments(
                    env,
                    Orderedness::Unknown,
                    &format!("unresolved field `self.{field}`"),
                    segments,
                );
            };
            last_ty = Some(ty.clone());
            // Follow into a named struct type for the next field hop.
            current = ty
                .split([' ', '<', '&'])
                .find(|s| !s.is_empty() && s.chars().next().is_some_and(char::is_uppercase))
                .map(String::from);
        }
        if let Some(ty) = last_ty {
            let non_field: Vec<String> = segments
                .iter()
                .filter(|s| !s.starts_with("field:"))
                .cloned()
                .collect();
            return apply_segments(
                env,
                classify_type(&ty),
                &format!("field typed `{ty}`"),
                &non_field,
            );
        }
        return apply_segments(env, Orderedness::Unknown, "bare self", segments);
    }
    match locals.get(name) {
        Some(ty) => {
            let class = classify_type(ty);
            apply_segments(env, class, &format!("`{name}: {ty}`"), segments)
        }
        None => apply_segments(
            env,
            Orderedness::Unknown,
            &format!("`{name}` has no visible type"),
            segments,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> WorkspaceAnalysis {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect();
        analyze_workspace_sources(&owned)
    }

    fn active(out: &WorkspaceAnalysis, rule: &str) -> Vec<(String, u32)> {
        out.findings
            .iter()
            .filter(|f| f.rule == rule && !f.waived && f.severity == Severity::Deny)
            .map(|f| (f.file.clone(), f.line))
            .collect()
    }

    const EVENT_ENUM: &str =
        "pub enum EventKind {\n  JobArrival,\n  TaskComplete,\n  BatchFlush,\n}\n";

    #[test]
    fn catch_all_over_registered_enum_is_denied() {
        let out = ws(&[
            ("crates/serve/src/event.rs", EVENT_ENUM),
            (
                "crates/serve/src/engine/core.rs",
                "fn handle(k: EventKind) -> u8 {\n  match k {\n    EventKind::JobArrival => 1,\n    _ => 0,\n  }\n}\n",
            ),
        ]);
        let hits = active(&out, "exhaustive-event-match");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 4, "finding anchors at the `_` arm");
    }

    #[test]
    fn missing_variant_without_catch_all_is_denied() {
        // The deleted-arm case: no `_`, but BatchFlush is gone.
        let out = ws(&[
            ("crates/serve/src/event.rs", EVENT_ENUM),
            (
                "crates/serve/src/engine/core.rs",
                "fn handle(k: EventKind) -> u8 {\n  match k {\n    EventKind::JobArrival => 1,\n    EventKind::TaskComplete => 2,\n  }\n}\n",
            ),
        ]);
        let hits = active(&out, "exhaustive-event-match");
        assert_eq!(hits.len(), 1, "{hits:?}");
        let f = out
            .findings
            .iter()
            .find(|f| f.rule == "exhaustive-event-match")
            .expect("finding");
        assert!(f.message.contains("BatchFlush"), "{}", f.message);
    }

    #[test]
    fn exhaustive_match_is_clean_and_tests_are_exempt() {
        let out = ws(&[
            ("crates/serve/src/event.rs", EVENT_ENUM),
            (
                "crates/serve/src/engine/core.rs",
                "fn handle(k: EventKind) -> u8 {\n  match k {\n    EventKind::JobArrival => 1,\n    EventKind::TaskComplete => 2,\n    EventKind::BatchFlush => 3,\n  }\n}\n#[cfg(test)]\nmod tests {\n  fn t(k: EventKind) -> u8 { match k { EventKind::JobArrival => 1, _ => 0 } }\n}\n",
            ),
        ]);
        assert!(active(&out, "exhaustive-event-match").is_empty());
    }

    #[test]
    fn guarded_wildcard_is_not_exempt_but_wrapped_patterns_skip_coverage() {
        // `Some(EventKind::X)`-style arms are not "direct": coverage is
        // rustc's job there, but a catch-all still gets flagged.
        let out = ws(&[
            ("crates/serve/src/event.rs", EVENT_ENUM),
            (
                "crates/serve/src/engine/core.rs",
                "fn f(k: Option<EventKind>) -> u8 {\n  match k {\n    Some(EventKind::JobArrival) => 1,\n    Some(_) => 2,\n    None => 0,\n  }\n}\n",
            ),
        ]);
        // `Some(_)` is not a lone `_` arm; no finding.
        assert!(active(&out, "exhaustive-event-match").is_empty());
    }

    #[test]
    fn panic_reachability_reports_cross_crate_path_and_waiver_silences() {
        let serve = "pub fn serve(x: usize) -> usize { decode(x) }\n";
        let coding_bad = "pub fn decode(x: usize) -> usize { inner(x) }\nfn inner(x: usize) -> usize { x.checked_mul(2).unwrap() }\n";
        let out = ws(&[
            ("crates/serve/src/lib.rs", serve),
            ("crates/coding/src/lib.rs", coding_bad),
        ]);
        let hits = active(&out, "panic-reachability");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "crates/coding/src/lib.rs");

        let coding_waived = "pub fn decode(x: usize) -> usize { inner(x) }\nfn inner(x: usize) -> usize {\n  // s2c2-allow: panic-reachability -- checked_mul cannot overflow: x is a chunk count\n  x.checked_mul(2).unwrap()\n}\n";
        let out2 = ws(&[
            ("crates/serve/src/lib.rs", serve),
            ("crates/coding/src/lib.rs", coding_waived),
        ]);
        assert!(active(&out2, "panic-reachability").is_empty());
        // The waiver is used, so it is not stale.
        assert!(active(&out2, "stale-waiver").is_empty());
    }

    #[test]
    fn unreachable_panic_in_other_crate_is_clean() {
        let out = ws(&[
            ("crates/serve/src/lib.rs", "pub fn serve() -> usize { 1 }\n"),
            (
                "crates/predict/src/lib.rs",
                "pub fn dead_end() { panic!(\"never called from serve\") }\n",
            ),
        ]);
        assert!(active(&out, "panic-reachability").is_empty());
    }

    #[test]
    fn hash_rooted_float_sum_is_denied_everywhere() {
        let out = ws(&[(
            "crates/cluster/src/lib.rs",
            "use std::collections::HashMap;\npub fn total(m: &HashMap<u32, f64>) -> f64 {\n  m.values().sum::<f64>()\n}\n",
        )]);
        let hits = active(&out, "unordered-float-reduction");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn slice_rooted_float_sum_is_clean() {
        let out = ws(&[(
            "crates/serve/src/metrics.rs",
            "pub fn total(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\npub fn weighted(v: &Vec<f64>) -> f64 { v.iter().map(|x| x * 2.0).sum::<f64>() }\n",
        )]);
        assert!(active(&out, "unordered-float-reduction").is_empty());
        // And no advisory either: both roots are provable.
        assert!(!out
            .findings
            .iter()
            .any(|f| f.rule == "unordered-float-reduction"));
    }

    #[test]
    fn fold_max_is_order_insensitive() {
        let out = ws(&[(
            "crates/serve/src/metrics.rs",
            "pub fn peak(xs: &[f64]) -> f64 { xs.iter().copied().fold(0.0, f64::max) }\n",
        )]);
        assert!(!out
            .findings
            .iter()
            .any(|f| f.rule == "unordered-float-reduction"));
    }

    #[test]
    fn integer_sums_are_ignored() {
        let out = ws(&[(
            "crates/serve/src/metrics.rs",
            "use std::collections::BTreeMap;\npub fn count(m: &BTreeMap<u32, usize>) -> usize { m.values().sum::<usize>() }\n",
        )]);
        assert!(!out
            .findings
            .iter()
            .any(|f| f.rule == "unordered-float-reduction"));
    }

    #[test]
    fn stale_waiver_is_a_deny_finding() {
        let out = ws(&[(
            "crates/serve/src/engine/core.rs",
            "// s2c2-allow: no-unordered-iteration -- keyed lookups only\nfn f() -> u8 { 1 }\n",
        )]);
        let hits = active(&out, "stale-waiver");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 1);
    }

    #[test]
    fn used_waiver_is_not_stale() {
        let out = ws(&[(
            "crates/serve/src/engine/core.rs",
            "// s2c2-allow: no-unordered-iteration -- keyed lookups only, never iterated\nuse std::collections::HashMap;\nfn f() -> u8 { 1 }\n",
        )]);
        assert!(active(&out, "stale-waiver").is_empty());
    }

    #[test]
    fn api_surface_flags_unreferenced_pub_and_exports_inventory() {
        let out = ws(&[
            (
                "crates/core/src/lib.rs",
                "pub fn used_api() -> u8 { 1 }\npub fn orphan_api() -> u8 { 2 }\n",
            ),
            (
                "crates/serve/src/lib.rs",
                "pub fn serve() -> u8 { used_api() }\n",
            ),
        ]);
        let warns: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.rule == "api-surface-audit")
            .collect();
        assert!(
            warns
                .iter()
                .any(|f| f.message.contains("orphan_api") && f.severity == Severity::Deny),
            "{warns:?}"
        );
        assert!(!warns.iter().any(|f| f.message.contains("used_api")));
        let orphan = out
            .api
            .items
            .iter()
            .find(|i| i.name == "orphan_api")
            .expect("inventoried");
        assert!(!orphan.referenced);
    }

    #[test]
    fn unresolved_reexport_is_denied() {
        let out = ws(&[(
            "src/lib.rs",
            "pub use s2c2_serve::NoSuchThing;\npub fn f() -> u8 { 1 }\n",
        )]);
        assert!(out.findings.iter().any(|f| f.rule == "api-surface-audit"
            && f.message.contains("NoSuchThing")
            && f.severity == Severity::Deny));
    }

    #[test]
    fn stats_are_populated() {
        let out = ws(&[
            ("crates/serve/src/event.rs", EVENT_ENUM),
            (
                "crates/serve/src/lib.rs",
                "pub fn serve(k: EventKind) -> u8 {\n  match k {\n    EventKind::JobArrival => 1,\n    EventKind::TaskComplete => 2,\n    EventKind::BatchFlush => 3,\n  }\n}\n",
            ),
        ]);
        assert_eq!(out.stats.registered_enums, 1);
        assert_eq!(out.stats.matches_over_registered, 1);
        assert!(out.stats.graph_fns >= 1);
        assert!(out.stats.entry_points >= 1);
    }
}
