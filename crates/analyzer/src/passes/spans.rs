//! Span balance: every `TraceEvent::SpanStart` emission must have a
//! matching `TraceEvent::SpanEnd` emission for the same `SpanKind`
//! somewhere in the workspace (the end is often emitted by a different
//! node than the start — both derive the same span id — so the balance
//! is global, not per function).
//!
//! Emissions are distinguished from match *patterns* by the token that
//! follows the struct literal's closing brace: `)`, `;` or `,` means the
//! literal is an expression being passed/stored (an emission); `=>`, `|`
//! or `=` means it is a pattern in a match arm or destructuring.
//! Emissions whose `kind` is not a literal `SpanKind::X` path (e.g. a
//! helper forwarding a `kind` variable) are treated as covering any kind
//! on the End side and as unattributable on the Start side.
//!
//! Constructions whose fields are themselves `decode` calls (a codec
//! reconstructing events from bytes) are not emissions at all — they re-materialize spans someone else already
//! emitted — and are excluded so a kind-generic decoder does not
//! blind the balance check.

use crate::lex::{matching_close, Tok, TokKind};
use crate::model::Workspace;
use crate::Finding;
use std::collections::BTreeMap;

/// One span-event site.
#[derive(Debug, Clone)]
pub struct SpanSite {
    pub rel: String,
    pub line: u32,
    /// `SpanStart` / `SpanEnd`.
    pub variant: String,
    /// `Some(kind)` for a literal `SpanKind::X`, `None` for dynamic.
    pub kind: Option<String>,
    pub is_emission: bool,
}

/// Collect every non-test `TraceEvent::SpanStart` / `SpanEnd` site.
pub fn sites(ws: &Workspace) -> Vec<SpanSite> {
    let mut out = Vec::new();
    for f in &ws.files {
        let toks = &f.toks;
        for i in 0..toks.len().saturating_sub(4) {
            if f.test_mask[i] {
                continue;
            }
            if !(toks[i].is_ident("TraceEvent")
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
                && (toks[i + 3].is_ident("SpanStart") || toks[i + 3].is_ident("SpanEnd"))
                && toks[i + 4].is_punct('{'))
            {
                continue;
            }
            let close = matching_close(toks, i + 4);
            // Codec reconstruction (`id: Wire::decode(buf)?, ...`), not a
            // semantic emission.
            if (i + 4..close).any(|j| toks[j].is_ident("decode")) {
                continue;
            }
            // A rest pattern (`..`) before the close brace can only occur
            // in a pattern position — catches `matches!(..)` arguments,
            // which a trailing `)` would otherwise misclassify.
            let rest_pattern =
                close >= 2 && toks[close - 1].is_punct('.') && toks[close - 2].is_punct('.');
            let after = toks.get(close + 1);
            let is_emission = !rest_pattern
                && match after {
                    Some(t) if t.is_punct(')') || t.is_punct(',') || t.is_punct(';') => true,
                    Some(t)
                        if t.is_punct('|')
                            || (t.is_punct('=')
                                && toks.get(close + 2).is_some_and(|n| n.is_punct('>')))
                            || t.is_punct('=') =>
                    {
                        false
                    }
                    _ => false,
                };
            out.push(SpanSite {
                rel: f.rel.clone(),
                line: toks[i].line,
                variant: toks[i + 3].text.clone(),
                kind: literal_kind(toks, i + 4, close),
                is_emission,
            });
        }
    }
    out
}

/// `kind: SpanKind::X` inside the braces, if literal.
fn literal_kind(toks: &[Tok], open: usize, close: usize) -> Option<String> {
    for i in open..close {
        if toks[i].is_ident("kind")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if toks.get(i + 2).is_some_and(|t| t.is_ident("SpanKind"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 4).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 5).is_some_and(|t| t.kind == TokKind::Ident)
            {
                return Some(toks[i + 5].text.clone());
            }
            return None; // dynamic kind expression
        }
    }
    None
}

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let all = sites(ws);
    let mut started: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut dynamic_end = false;
    let mut ended: Vec<String> = Vec::new();
    for s in &all {
        if !s.is_emission {
            continue;
        }
        match (s.variant.as_str(), &s.kind) {
            ("SpanStart", Some(k)) => {
                started
                    .entry(k.clone())
                    .or_insert_with(|| (s.rel.clone(), s.line));
            }
            ("SpanStart", None) => {} // unattributable; Starts are plentiful
            ("SpanEnd", Some(k)) => ended.push(k.clone()),
            ("SpanEnd", None) => dynamic_end = true,
            _ => {}
        }
    }
    if dynamic_end {
        return; // a kind-generic closer can end anything
    }
    for (kind, (rel, line)) in &started {
        if !ended.iter().any(|k| k == kind) {
            out.push(Finding {
                rel: rel.clone(),
                line: *line,
                rule: "span-balance",
                text: format!(
                    "SpanStart emitted for SpanKind::{kind} but no SpanEnd emission \
                     carries that kind anywhere in the workspace"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(
            Path::new("/r"),
            vec![(PathBuf::from("/r/crates/obs/src/x.rs"), src.to_string())],
        )
    }

    #[test]
    fn unmatched_start_is_flagged_and_patterns_are_not_emissions() {
        let src = "fn f(t: &mut T) {\n\
             t.emit(TraceEvent::SpanStart { id, parent, kind: SpanKind::Migrate, a, b });\n\
             t.emit(TraceEvent::SpanStart { id, parent, kind: SpanKind::Commit, a, b });\n\
             t.emit(TraceEvent::SpanEnd { id, kind: SpanKind::Commit });\n\
             }\n\
             fn g(e: &TraceEvent) -> bool {\n\
             matches!(e, TraceEvent::SpanEnd { kind: SpanKind::Migrate, .. })\n\
             }\n";
        let mut out = Vec::new();
        check(&ws(src), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "span-balance");
        assert!(out[0].text.contains("Migrate"));
    }

    #[test]
    fn decode_side_constructions_are_not_emissions() {
        let src = "fn decode_event(buf: &mut Bytes) -> Result<TraceEvent, E> {\n\
             Ok(TraceEvent::SpanEnd { id: Wire::decode(buf)?, kind: Wire::decode(buf)? })\n\
             }\n\
             fn f(t: &mut T) {\n\
             t.emit(TraceEvent::SpanStart { id, parent, kind: SpanKind::Read, a, b });\n\
             }\n";
        let mut out = Vec::new();
        check(&ws(src), &mut out);
        // Without the decode exclusion the kind-generic SpanEnd would mask
        // the missing Read closer.
        assert_eq!(out.len(), 1);
        assert!(out[0].text.contains("Read"));
    }

    #[test]
    fn dynamic_end_emission_disables_the_check() {
        let src = "fn close(t: &mut T, kind: SpanKind) {\n\
             t.emit(TraceEvent::SpanEnd { id, kind: kind_of(kind) });\n\
             }\n\
             fn f(t: &mut T) {\n\
             t.emit(TraceEvent::SpanStart { id, parent, kind: SpanKind::Read, a, b });\n\
             }\n";
        let mut out = Vec::new();
        check(&ws(src), &mut out);
        assert!(out.is_empty());
    }
}
