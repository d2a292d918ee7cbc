//! Call-graph fixtures: cross-module resolution, receiver ambiguity,
//! recursion, and the documented conservative fallback for unresolved
//! calls (a possible fence for R3, reachable candidates for R1).

use amnt_lint::callgraph::{CallGraph, EdgeKind};
use amnt_lint::parse::parse_file;
use amnt_lint::{lint_corpus, Finding};

fn graph(files: &[(&str, &str)]) -> CallGraph {
    let mut items = Vec::new();
    for (path, src) in files {
        items.extend(parse_file(path, src));
    }
    CallGraph::build(items)
}

fn corpus(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, c)| (p.to_string(), c.to_string()))
        .collect();
    lint_corpus(&owned)
}

fn idx(g: &CallGraph, name: &str) -> usize {
    g.fns
        .iter()
        .position(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fn {name}"))
}

#[test]
fn cross_module_path_call_resolves_to_the_module_file() {
    let g = graph(&[
        (
            "crates/a/src/alpha.rs",
            "pub fn top() { beta::helper(); }\n",
        ),
        ("crates/a/src/beta.rs", "pub fn helper() {}\n"),
    ]);
    let top = idx(&g, "top");
    let helper = idx(&g, "helper");
    assert_eq!(g.edges[top].len(), 1);
    assert_eq!(g.edges[top][0].callee, helper);
    assert_eq!(g.edges[top][0].kind, EdgeKind::Resolved);
    assert_eq!(g.callers[helper], vec![(top, g.edges[top][0].site)]);
}

#[test]
fn self_call_with_two_method_candidates_is_ambiguous_to_both() {
    // No C::act exists, so the self-call falls through to every method
    // candidate; the ambiguity policy edges to each of them.
    let g = graph(&[
        (
            "crates/c/src/lib.rs",
            "struct C;\nimpl C { fn go(&self) { self.act(); } }\n",
        ),
        (
            "crates/a/src/lib.rs",
            "struct A;\nimpl A { fn act(&self) {} }\n",
        ),
        (
            "crates/b/src/lib.rs",
            "struct B;\nimpl B { fn act(&self) {} }\n",
        ),
    ]);
    let go = idx(&g, "go");
    assert_eq!(g.edges[go].len(), 2, "{:?}", g.edges[go]);
    assert!(g.edges[go].iter().all(|e| e.kind == EdgeKind::Ambiguous));
    let targets: Vec<&str> = g.edges[go]
        .iter()
        .map(|e| g.fns[e.callee].path.as_str())
        .collect();
    assert!(targets.contains(&"crates/a/src/lib.rs"));
    assert!(targets.contains(&"crates/b/src/lib.rs"));
}

#[test]
fn recursion_builds_and_mutually_recursive_unfenced_mutation_is_flagged() {
    // The graph tolerates cycles, and the least-fixpoint acceptance
    // correctly rejects a mutual-recursion cycle in which nobody fences:
    // `a` and `b` vouch only for each other, which proves nothing.
    let files = [(
        "crates/core/src/protocol/m.rs",
        "impl E {\n\
         \x20   fn a(&mut self) {\n\
         \x20       self.dev.write_u64(1, 2);\n\
         \x20       self.b();\n\
         \x20   }\n\
         \x20   fn b(&mut self) {\n\
         \x20       self.a();\n\
         \x20   }\n\
         }\n",
    )];
    let g = graph(&files);
    let (a, b) = (idx(&g, "a"), idx(&g, "b"));
    assert!(g.edges[a].iter().any(|e| e.callee == b));
    assert!(g.edges[b].iter().any(|e| e.callee == a));

    let findings = corpus(&files);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R3");
    assert!(
        findings[0].message.contains("fn `a`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn unresolved_self_call_counts_as_a_fence_for_r3() {
    // `self.mystery()` matches nothing in the corpus: it is recorded as an
    // unresolved self-call, and R3's under-approximation treats it as a
    // possible fence — no finding, even with no callers at all.
    let files = [(
        "crates/core/src/protocol/h.rs",
        "impl E {\n\
         \x20   fn store(&mut self) {\n\
         \x20       self.dev.write_u64(1, 2);\n\
         \x20       self.mystery();\n\
         \x20   }\n\
         }\n",
    )];
    let g = graph(&files);
    let store = idx(&g, "store");
    assert!(g.unresolved[store]
        .iter()
        .any(|u| u.name == "mystery" && u.self_call));

    let findings = corpus(&files);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn ambiguous_candidates_are_all_reachable_for_r1() {
    // R1's over-approximation: the entry's ambiguous `self.act()` makes
    // every candidate reachable, so the panic in `B::act` is found even
    // though resolution could not pick between A and B.
    let findings = corpus(&[
        (
            "crates/core/src/rec2.rs",
            "impl Ctl {\n\
             \x20   fn recover(&mut self) {\n\
             \x20       self.act();\n\
             \x20   }\n\
             }\n",
        ),
        (
            "crates/cache/src/a.rs",
            "struct A;\nimpl A {\n    fn act(&self) {}\n}\n",
        ),
        (
            "crates/cache/src/b.rs",
            "struct B;\nimpl B {\n\
             \x20   fn act(&self) {\n\
             \x20       let x: Option<u8> = None;\n\
             \x20       x.unwrap();\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R1");
    assert_eq!(findings[0].path, "crates/cache/src/b.rs");
    assert!(
        findings[0].message.contains("recover"),
        "{}",
        findings[0].message
    );
}

#[test]
fn dump_shows_resolution_classes() {
    let g = graph(&[
        (
            "crates/c/src/lib.rs",
            "struct C;\nimpl C { fn go(&self) { self.act(); self.ext(); } }\n",
        ),
        (
            "crates/a/src/lib.rs",
            "struct A;\nimpl A { fn act(&self) {} }\n",
        ),
        (
            "crates/b/src/lib.rs",
            "struct B;\nimpl B { fn act(&self) {} }\n",
        ),
    ]);
    let d = g.dump();
    assert!(d.contains("~> crates/a/src/lib.rs::A::act"), "{d}");
    assert!(d.contains("~> crates/b/src/lib.rs::B::act"), "{d}");
    assert!(d.contains("?? self.ext (external)"), "{d}");
}
