//! The analyzer's acceptance gate, in two halves:
//!
//! * **fixtures fire** — each pass is run over a deliberately broken
//!   file in `tests/fixtures/` and must produce its finding. A pass
//!   that silently stops firing (parser drift, a refactor that skips
//!   the check) fails here, not in production CI where the tree is
//!   clean either way.
//! * **clean tree is clean** — the real workspace produces zero
//!   non-allowlisted findings, and the wire inventory covers the
//!   expected number of `Wire` impls per protocol crate.

use marp_analyzer::model::Workspace;
use marp_analyzer::passes::wire::WireShape;
use marp_analyzer::{allowed, load_allowlist, load_workspace, passes, Finding};
use std::path::{Path, PathBuf};

/// Parse one fixture as if it lived at `crates/<rel>` of a workspace.
fn fixture_ws(name: &str, rel: &str) -> Workspace {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    Workspace::from_sources(
        Path::new("/fx"),
        vec![(PathBuf::from(format!("/fx/{rel}")), src)],
    )
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wire_handwritten_fires_on_fixture() {
    let ws = fixture_ws("wire_handwritten.rs", "crates/core/src/broken.rs");
    let mut out = Vec::new();
    passes::wire::check(&ws, &mut out);
    assert_eq!(rules(&out), vec!["wire-handwritten"], "{out:?}");
    assert!(out[0].text.contains("BrokenMsg"), "{out:?}");
    // The same impl inside crates/wire is a leaf codec, not a finding.
    let ws = fixture_ws("wire_handwritten.rs", "crates/wire/src/leaf.rs");
    let mut out = Vec::new();
    passes::wire::check(&ws, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn handler_exhaustiveness_fires_on_fixture() {
    let ws = fixture_ws("handler_missing.rs", "crates/core/src/broken_dispatch.rs");
    let spec = [passes::handlers::HandlerSpec {
        enum_name: "BrokenEvent",
        dispatch: &["crates/core/src/broken_dispatch.rs"],
    }];
    let mut out = Vec::new();
    passes::handlers::check_specs(&ws, &spec, &mut out);
    assert_eq!(rules(&out), vec!["handler-exhaustiveness"], "{out:?}");
    assert!(out[0].text.contains("BrokenEvent::Late"), "{out:?}");
}

#[test]
fn timer_passes_fire_on_fixture() {
    let ws = fixture_ws("timer_collision.rs", "crates/core/src/broken_timers.rs");
    let mut out = Vec::new();
    passes::timers::check(&ws, &mut out);
    let rs = rules(&out);
    assert!(rs.contains(&"timer-tag-collision"), "{out:?}");
    assert!(rs.contains(&"timer-crash-path"), "{out:?}");
    assert!(
        out.iter()
            .any(|f| f.text.contains("TAG_RETRY") && f.text.contains("TAG_LEASE_SWEEP")),
        "collision should name both constants: {out:?}"
    );
}

#[test]
fn span_balance_fires_on_fixture() {
    let ws = fixture_ws("span_unbalanced.rs", "crates/core/src/broken_spans.rs");
    let mut out = Vec::new();
    passes::spans::check(&ws, &mut out);
    assert_eq!(rules(&out), vec!["span-balance"], "{out:?}");
    assert!(out[0].text.contains("Migrate"), "{out:?}");
}

#[test]
fn lease_passes_fire_on_fixture() {
    let ws = fixture_ws("lease_leak.rs", "crates/replica/src/broken_leases.rs");
    let mut out = Vec::new();
    passes::leases::check(&ws, &mut out);
    let rs = rules(&out);
    assert!(rs.contains(&"lease-purge-before-read"), "{out:?}");
    assert!(rs.contains(&"lease-release-path"), "{out:?}");
}

/// The golden run: the real tree, all five passes plus the lint set,
/// zero findings after the allowlist. This is exactly what the CI lint
/// job executes via `marp-analyze lint && marp-analyze analyze`.
#[test]
fn clean_tree_produces_zero_findings() {
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let ws = load_workspace(&root);
    let allows = load_allowlist(&root);
    let mut findings = marp_analyzer::run_analyze(&ws);
    let (lint, _) = marp_analyzer::run_lint(&ws);
    findings.extend(lint);
    findings.retain(|f| !allowed(&allows, f));
    assert!(
        findings.is_empty(),
        "tree has findings:\n{}",
        marp_analyzer::render(&findings)
    );
}

/// Wire coverage: the inventory must see every `Wire` impl in the
/// protocol crates. Adding an impl bumps these counts — that is the
/// point: the analyzer cannot silently lose sight of a codec.
#[test]
fn wire_inventory_covers_protocol_crates() {
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let ws = load_workspace(&root);
    let inv = passes::wire::inventory(&ws);

    let count = |krate: &str, macro_shape: bool| {
        inv.iter()
            .filter(|wi| wi.krate == krate && (wi.shape == WireShape::Macro) == macro_shape)
            .count()
    };
    // crates/core: UpdateMsg, CommitMsg, LockingTable, UpdateAgent,
    // ReadAgent via wire_struct! and Phase, NodeMsg, AgentReply via
    // wire_enum!.
    assert_eq!(count("crates/core", true), 8);
    // crates/replica: Operation, ClientReply, SyncMsg via wire_enum! and
    // the request/lock-entry/snapshot family via wire_struct!.
    assert_eq!(count("crates/replica", true), 9);
    // crates/sim: SimTime, TraceRecord via wire_struct! and SpanKind,
    // TraceEvent via wire_enum!.
    assert_eq!(count("crates/sim", true), 4);
    // crates/quorum: QuorumCall<T>, TimerMux via wire_struct! and
    // Verdict, SuccessRule via wire_enum!.
    assert_eq!(count("crates/quorum", true), 4);
    // crates/wire: the primitive, container and `&'static str` leaf
    // codecs plus the four varint-macro instantiations (u16, u32, i16,
    // i32).
    assert_eq!(count("crates/wire", false), 16);
    assert_eq!(count("crates/wire", true), 4);
    // Every other impl is declared through a macro.
    assert_eq!(
        inv.iter().filter(|wi| wi.shape == WireShape::Leaf).count(),
        16
    );
    assert_eq!(inv.len(), 55, "workspace-wide Wire impl count");
}
