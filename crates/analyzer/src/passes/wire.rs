//! Wire codecs are declared, not written: every non-test `impl Wire`
//! outside `crates/wire/` is a `wire-handwritten` finding.
//!
//! `wire_struct!` / `wire_enum!` generate `encode`, `decode` and
//! `encoded_len` from one field list, so the three are symmetric by
//! construction. The hand-written impls left are the leaf codecs in
//! `crates/wire` (primitives, containers, string labels), which its
//! round-trip tests cover; the token model cannot see byte arithmetic.

use crate::lex::TokKind;
use crate::model::Workspace;
use crate::Finding;

/// How an impl is provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireShape {
    /// `wire_struct!` / `wire_enum!` / `wire_uvarint!` / `wire_ivarint!`.
    Macro,
    /// A hand-written `impl Wire` block: a leaf codec in `crates/wire`,
    /// a finding anywhere else.
    Leaf,
}

/// One `Wire` implementation found in the workspace.
#[derive(Debug, Clone)]
pub struct WireImplInfo {
    pub krate: String,
    pub rel: String,
    pub line: u32,
    pub type_name: String,
    pub shape: WireShape,
}

const WIRE_MACROS: &[&str] = &["wire_struct", "wire_enum", "wire_uvarint", "wire_ivarint"];

/// Every non-test `Wire` impl in the workspace, handwritten or macro.
pub fn inventory(ws: &Workspace) -> Vec<WireImplInfo> {
    let mut out = Vec::new();
    for f in &ws.files {
        for im in &f.impls {
            if im.is_test || im.trait_name.as_deref() != Some("Wire") || im.type_name.is_empty() {
                continue;
            }
            out.push(WireImplInfo {
                krate: f.krate.clone(),
                rel: f.rel.clone(),
                line: im.line,
                type_name: im.type_name.clone(),
                shape: WireShape::Leaf,
            });
        }
        for mc in &f.macros {
            if mc.is_test || !WIRE_MACROS.contains(&mc.name.as_str()) {
                continue;
            }
            // wire_struct!/wire_enum! name one type; the varint macros
            // instantiate one impl per listed type.
            let names: Vec<String> = if mc.name == "wire_struct" || mc.name == "wire_enum" {
                f.toks[mc.args.clone()]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident)
                    .map(|t| vec![t.text.clone()])
                    .unwrap_or_default()
            } else {
                f.toks[mc.args.clone()]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect()
            };
            for type_name in names {
                out.push(WireImplInfo {
                    krate: f.krate.clone(),
                    rel: f.rel.clone(),
                    line: mc.line,
                    type_name,
                    shape: WireShape::Macro,
                });
            }
        }
    }
    out
}

/// Report every hand-written impl outside `crates/wire/`.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for wi in inventory(ws) {
        if wi.shape == WireShape::Leaf && wi.krate != "crates/wire" {
            out.push(Finding {
                rel: wi.rel,
                line: wi.line,
                rule: "wire-handwritten",
                text: format!(
                    "hand-written `impl Wire for {}`; declare it with wire_struct!/wire_enum!",
                    wi.type_name
                ),
            });
        }
    }
}
