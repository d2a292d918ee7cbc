//! The workspace call graph: name resolution over [`crate::parse`] items.
//!
//! # Resolution policy
//!
//! Call sites resolve to candidate `fn` items **by name**, narrowed by the
//! receiver shape. The policy is deliberately explicit because the two
//! interprocedural rules consume uncertainty in *opposite* soundness
//! directions (see [`crate::dataflow`]):
//!
//! * `self.f(..)` — candidates defined on the caller's own `impl` type win;
//!   failing that, any method candidate (`fn f(&self, ..)`); failing that,
//!   every same-name candidate. A `self` call that matches *nothing* in the
//!   corpus is recorded as an **unresolved self-call** — the conservative
//!   fallback the rules document (R3 treats it as a possible fence, R9 as a
//!   possible bracket close, R1 has nothing to scan).
//! * `local.f(..)` — when the caller's `let`-binding table
//!   ([`FnItem::locals`]) pins the receiver's type (`let c = Controller::
//!   new(..)` then `c.f(..)`), only candidates on exactly that type
//!   survive — and a pinned type with *no* corpus candidate is unresolved
//!   outright, even for a globally unique name (the binding says the call
//!   goes to std/alloc, not to the lookalike). Unpinned locals fall back
//!   to the field policy below.
//! * `field.f(..)` — a globally unique name resolves outright; otherwise
//!   candidates whose `impl` type matches the receiver ident
//!   (case-insensitive containment: `timeline` ↔ `MemoryTimeline`) are
//!   kept. No unique name and no type match → **unresolved** (almost
//!   always a std/alloc method like `vec.push(..)`).
//! * `Type::f(..)` — candidates on exactly that type; `Self::f(..)` uses
//!   the caller's `impl` type; a lowercase segment is treated as a module
//!   path (free-fn candidates in a file of that name, else a unique name).
//! * `expr.f(..)` — unique name or nothing.
//! * `f(..)` — free-fn candidates, same file first.
//!
//! Any narrowing that still leaves several candidates produces an
//! **ambiguous** edge to each of them. `#[cfg(test)]` items and files under
//! `tests/`/`benches/` never enter the graph — fixtures and test harnesses
//! must not vouch for (or indict) production call paths.

use crate::parse::{CallSite, FnItem, Receiver};
use std::collections::BTreeMap;

/// How confidently a call edge was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Exactly one candidate survived the policy.
    Resolved,
    /// Several candidates survived; the edge targets each of them.
    Ambiguous,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the callee in [`CallGraph::fns`].
    pub callee: usize,
    /// Resolution confidence.
    pub kind: EdgeKind,
    /// Absolute byte offset of the call site in the caller's file.
    pub site: usize,
}

/// An unresolved call site, kept for the conservative fallbacks and for
/// `--dump-callgraph`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedSite {
    /// Callee name as written.
    pub name: String,
    /// Whether the receiver was `self` (the shape the R3/R9 fallbacks
    /// treat as a possible fence/close).
    pub self_call: bool,
    /// Absolute byte offset in the caller's file.
    pub site: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Graph nodes: non-test `fn` items from `src/` files.
    pub fns: Vec<FnItem>,
    /// Out-edges per node, in call-site order.
    pub edges: Vec<Vec<Edge>>,
    /// In-edges: `(caller index, call-site offset in the caller's file)`.
    pub callers: Vec<Vec<(usize, usize)>>,
    /// Unresolved call sites per node, in call-site order.
    pub unresolved: Vec<Vec<UnresolvedSite>>,
}

/// Whether a scanned file participates in the call graph. Test and bench
/// trees are excluded: their calls are not production paths.
fn graph_path(path: &str) -> bool {
    !(path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/"))
}

impl CallGraph {
    /// Builds the graph from parsed items (test items and test-tree files
    /// are dropped here).
    pub fn build(items: Vec<FnItem>) -> CallGraph {
        let fns: Vec<FnItem> = items
            .into_iter()
            .filter(|f| !f.in_test && graph_path(&f.path))
            .collect();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        let mut callers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); fns.len()];
        let mut unresolved: Vec<Vec<UnresolvedSite>> = vec![Vec::new(); fns.len()];
        for i in 0..fns.len() {
            for call in fns[i].calls.clone() {
                let cands = by_name.get(call.name.as_str()).cloned().unwrap_or_default();
                match resolve(&fns, i, &call, &cands) {
                    Resolution::To(targets) => {
                        let kind = if targets.len() == 1 {
                            EdgeKind::Resolved
                        } else {
                            EdgeKind::Ambiguous
                        };
                        for t in targets {
                            edges[i].push(Edge {
                                callee: t,
                                kind,
                                site: call.offset,
                            });
                            callers[t].push((i, call.offset));
                        }
                    }
                    Resolution::External => unresolved[i].push(UnresolvedSite {
                        name: call.name.clone(),
                        self_call: call.recv == Receiver::SelfDot,
                        site: call.offset,
                    }),
                }
            }
        }
        CallGraph {
            fns,
            edges,
            callers,
            unresolved,
        }
    }

    /// Node indices whose `(path prefix, name)` matches — entry-point
    /// lookup for the dataflow rules.
    pub fn find(&self, path_prefixes: &[&str], names: &[&str]) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                names.contains(&f.name.as_str())
                    && path_prefixes.iter().any(|p| f.path.starts_with(p))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Human-readable graph dump for `--dump-callgraph`: one block per
    /// function with its resolved, ambiguous, and unresolved call sites.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.fns.iter().enumerate() {
            out.push_str(&format!("fn {} (line {})\n", f.display_id(), f.line));
            for e in &self.edges[i] {
                let tag = match e.kind {
                    EdgeKind::Resolved => "->",
                    EdgeKind::Ambiguous => "~>",
                };
                out.push_str(&format!("  {tag} {}\n", self.fns[e.callee].display_id()));
            }
            for u in &self.unresolved[i] {
                let recv = if u.self_call { "self." } else { "" };
                out.push_str(&format!("  ?? {recv}{} (external)\n", u.name));
            }
        }
        out
    }
}

enum Resolution {
    To(Vec<usize>),
    External,
}

/// The shared `field.f(..)` policy: unique name wins, else impl-type
/// containment against the receiver ident.
fn resolve_field(fns: &[FnItem], recv: &str, cands: &[usize]) -> Resolution {
    if cands.len() == 1 {
        return Resolution::To(cands.to_vec());
    }
    let matches: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| type_matches(fns[c].impl_type.as_deref(), recv))
        .collect();
    if matches.is_empty() {
        Resolution::External
    } else {
        Resolution::To(matches)
    }
}

/// Case-insensitive containment between a receiver ident and an `impl`
/// type name: `timeline` ↔ `MemoryTimeline`, `nvm` ↔ `Nvm`.
fn type_matches(impl_type: Option<&str>, recv: &str) -> bool {
    let Some(t) = impl_type else { return false };
    let (t, r) = (t.to_ascii_lowercase(), recv.to_ascii_lowercase());
    t.contains(&r) || r.contains(&t)
}

fn resolve(fns: &[FnItem], caller: usize, call: &CallSite, cands: &[usize]) -> Resolution {
    if cands.is_empty() {
        return Resolution::External;
    }
    let pick = |v: Vec<usize>| {
        if v.is_empty() {
            None
        } else {
            Some(Resolution::To(v))
        }
    };
    match &call.recv {
        Receiver::SelfDot => {
            let own = fns[caller].impl_type.as_deref();
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| own.is_some() && fns[c].impl_type.as_deref() == own)
                .collect();
            if let Some(r) = pick(same) {
                return r;
            }
            let methods: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].has_receiver)
                .collect();
            if let Some(r) = pick(methods) {
                return r;
            }
            Resolution::To(cands.to_vec())
        }
        Receiver::Field(recv) => resolve_field(fns, recv, cands),
        Receiver::Local(recv) => {
            if let Some(ty) = fns[caller].locals.get(recv) {
                let on_type: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| fns[c].impl_type.as_deref() == Some(ty.as_str()))
                    .collect();
                return pick(on_type).unwrap_or(Resolution::External);
            }
            resolve_field(fns, recv, cands)
        }
        Receiver::Path(seg) => {
            let seg = if seg == "Self" {
                match fns[caller].impl_type.as_deref() {
                    Some(t) => t.to_string(),
                    None => return Resolution::External,
                }
            } else {
                seg.clone()
            };
            let on_type: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].impl_type.as_deref() == Some(seg.as_str()))
                .collect();
            if let Some(r) = pick(on_type) {
                return r;
            }
            if seg.starts_with(|c: char| c.is_ascii_lowercase()) {
                // Module path: free fns in a file named after the module.
                let in_module: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        fns[c].impl_type.is_none()
                            && (fns[c].path.ends_with(&format!("/{seg}.rs"))
                                || fns[c].path.contains(&format!("/{seg}/")))
                    })
                    .collect();
                if let Some(r) = pick(in_module) {
                    return r;
                }
                if cands.len() == 1 {
                    return Resolution::To(cands.to_vec());
                }
            }
            Resolution::External
        }
        Receiver::Expr => {
            if cands.len() == 1 {
                Resolution::To(cands.to_vec())
            } else {
                Resolution::External
            }
        }
        Receiver::Bare => {
            let free_same_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].impl_type.is_none() && fns[c].path == fns[caller].path)
                .collect();
            if let Some(r) = pick(free_same_file) {
                return r;
            }
            let free: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].impl_type.is_none())
                .collect();
            pick(free).unwrap_or(Resolution::External)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut items = Vec::new();
        for (path, src) in files {
            items.extend(parse_file(path, src));
        }
        CallGraph::build(items)
    }

    fn idx(g: &CallGraph, id: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.display_id() == id)
            .unwrap_or_else(|| panic!("no {id}"))
    }

    #[test]
    fn receiver_ident_narrows_ambiguous_names() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "struct MemoryTimeline;\nimpl MemoryTimeline { fn write(&mut self) {} }\n\
                 struct Nvm;\nimpl Nvm { fn write(&mut self) {} }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "struct C { timeline: u8 }\nimpl C { fn go(&mut self) { self.timeline.write(); } }\n",
            ),
        ]);
        let go = idx(&g, "crates/b/src/lib.rs::C::go");
        assert_eq!(g.edges[go].len(), 1);
        assert_eq!(
            g.fns[g.edges[go][0].callee].display_id(),
            "crates/a/src/lib.rs::MemoryTimeline::write"
        );
        assert_eq!(g.edges[go][0].kind, EdgeKind::Resolved);
    }

    #[test]
    fn field_call_with_no_match_is_external() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct A;\nimpl A { fn push(&mut self) {} }\n\
             struct B;\nimpl B { fn push(&mut self) {} }\n\
             fn go(v: &mut Vec<u8>) { v.push(); }\n",
        )]);
        let go = idx(&g, "crates/a/src/lib.rs::go");
        assert!(g.edges[go].is_empty());
        assert_eq!(g.unresolved[go].len(), 1);
        assert_eq!(g.unresolved[go][0].name, "push");
        assert!(!g.unresolved[go][0].self_call);
    }

    #[test]
    fn local_binding_type_resolves_ambiguous_method_names() {
        // Two `write` methods; the receiver ident "w" gives containment
        // nothing to work with, but the `let` binding pins the type.
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct MemoryTimeline;\nimpl MemoryTimeline { fn write(&mut self) {} }\n\
             struct Nvm;\nimpl Nvm { fn new() -> Nvm { Nvm } fn write(&mut self) {} }\n\
             fn go() { let w = Nvm::new(); w.write(); }\n",
        )]);
        let go = idx(&g, "crates/a/src/lib.rs::go");
        let writes: Vec<&Edge> = g.edges[go]
            .iter()
            .filter(|e| g.fns[e.callee].name == "write")
            .collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(
            g.fns[writes[0].callee].display_id(),
            "crates/a/src/lib.rs::Nvm::write"
        );
        assert_eq!(writes[0].kind, EdgeKind::Resolved);
    }

    #[test]
    fn pinned_std_local_beats_the_unique_name_shortcut() {
        // `v` is pinned to Vec, which has no corpus impl: the call must
        // NOT resolve to the lone same-name corpus method.
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct Wpq;\nimpl Wpq { fn push(&mut self) {} }\n\
             fn go() { let mut v: Vec<u8> = make(); v.push(1); }\n",
        )]);
        let go = idx(&g, "crates/a/src/lib.rs::go");
        assert!(g.edges[go].iter().all(|e| g.fns[e.callee].name != "push"));
        assert!(g.unresolved[go].iter().any(|u| u.name == "push"));
    }

    #[test]
    fn unpinned_local_falls_back_to_the_field_policy() {
        // A fn parameter never enters the binding table; a globally
        // unique name still resolves, as before.
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct Wpq;\nimpl Wpq { fn drain_all(&mut self) {} }\n\
             fn go(q: &mut Wpq) { q.drain_all(); }\n",
        )]);
        let go = idx(&g, "crates/a/src/lib.rs::go");
        assert_eq!(g.edges[go].len(), 1);
        assert_eq!(g.fns[g.edges[go][0].callee].name, "drain_all");
        assert_eq!(g.edges[go][0].kind, EdgeKind::Resolved);
    }

    #[test]
    fn test_items_and_test_trees_stay_out() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { live(); } }\n",
            ),
            ("crates/a/tests/fixture.rs", "fn harness() {}\n"),
        ]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "live");
    }

    #[test]
    fn dump_renders_all_three_edge_classes() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); c(); ext(); }\nfn b() {}\nfn c() {}\n",
        )]);
        let d = g.dump();
        assert!(d.contains("fn crates/a/src/lib.rs::a"));
        assert!(d.contains("-> crates/a/src/lib.rs::b"));
        assert!(d.contains("?? ext (external)"));
    }
}
