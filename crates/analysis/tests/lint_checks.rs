//! Fixture tests: one known-bad snippet per check, asserting the exact
//! diagnostic, plus suppression behavior and the JSON schema round-trip.

use cxk_analysis::report::{Report, Severity};
use cxk_analysis::{json, lint_sources, Config};

fn lint_one(path: &str, src: &str) -> Report {
    lint_sources(&[(path.to_string(), src.to_string())], &Config::default())
}

#[test]
fn panic_freedom_flags_hot_path_unwrap() {
    let rep = lint_one(
        "crates/serve/src/worker.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
    let d = &rep.diagnostics[0];
    assert_eq!(d.check, "panic-freedom");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.file, "crates/serve/src/worker.rs");
    assert_eq!(d.line, 2);
    assert_eq!(
        d.message,
        "`.unwrap()` in hot-path crate `serve`: return a typed error \
         (a panicking worker thread kills serving capacity silently)"
    );
}

#[test]
fn panic_freedom_covers_every_macro_and_skips_tests() {
    let rep = lint_one(
        "crates/p2p/src/x.rs",
        r#"
pub fn a(r: Result<u32, ()>) -> u32 { r.expect("boom") }
pub fn b() { panic!("no"); }
pub fn c() { unreachable!(); }
pub fn d() { todo!(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Option::<u32>::None.unwrap(); }
}
"#,
    );
    let kinds: Vec<&str> = rep
        .diagnostics
        .iter()
        .map(|d| d.message.split('`').nth(1).unwrap_or(""))
        .collect();
    assert_eq!(
        kinds,
        vec![".expect(...)", "panic!", "unreachable!", "todo!"],
        "{:?}",
        rep.diagnostics
    );
}

#[test]
fn panic_freedom_ignores_unlisted_crates_and_lookalikes() {
    // `core` is not a deny-listed crate; unwrap_or / expect_err are not
    // panicking calls even in a deny-listed one.
    let rep = lint_one(
        "crates/core/src/x.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    let rep = lint_one(
        "crates/serve/src/x.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
         pub fn g(r: Result<u32, u32>) -> u32 { r.expect_err(\"ok\") }\n",
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
}

#[test]
fn panic_freedom_passes_expect_with_a_char_or_byte_argument() {
    // `Option::expect` and `Result::expect` take a `&str`: a char or byte
    // literal argument names some other method, such as the XML readers'
    // byte-consuming `expect`. A string or a named message still counts.
    let rep = lint_one(
        "crates/xml/src/reader.rs",
        r#"
pub fn a(&mut self) -> Result<(), E> { self.expect(b'>')?; self.expect('\'')?; Ok(()) }
pub fn b(r: Result<u32, ()>) -> u32 { r.expect("boom") }
pub fn c(o: Option<u8>) -> u8 { o.expect(MESSAGE) }
pub fn d<'a>(o: Option<&'a u8>) -> &'a u8 { o.expect(&'a') }
"#,
    );
    let lines: Vec<u32> = rep.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![3, 4, 5], "{:?}", rep.diagnostics);
}

#[test]
fn strings_and_comments_never_trigger() {
    let rep = lint_one(
        "crates/serve/src/x.rs",
        "pub fn f() -> &'static str {\n    // calling unwrap() here would panic!\n    \"use .unwrap() and panic!()\"\n}\n",
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
}

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let rep = lint_one(
        "crates/xml/src/raw.rs",
        "pub fn peek(xs: &[u8]) -> u8 {\n    unsafe { *xs.as_ptr() }\n}\n",
    );
    assert_eq!(rep.diagnostics.len(), 1);
    let d = &rep.diagnostics[0];
    assert_eq!(d.check, "unsafe-safety");
    assert_eq!(d.line, 2);
    assert_eq!(
        d.message,
        "unsafe block without a `// SAFETY:` comment justifying the invariants"
    );
    let inv = &rep.unsafe_inventory["xml"];
    assert_eq!((inv.total, inv.blocks, inv.documented), (1, 1, 0));
}

#[test]
fn safety_comment_silences_and_counts_as_documented() {
    let rep = lint_one(
        "crates/xml/src/raw.rs",
        "pub fn peek(xs: &[u8]) -> u8 {\n    // SAFETY: caller guarantees xs is non-empty.\n    unsafe { *xs.as_ptr() }\n}\n",
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    let inv = &rep.unsafe_inventory["xml"];
    assert_eq!((inv.total, inv.documented), (1, 1));
}

#[test]
fn atomic_mixed_pair_is_an_error() {
    let rep = lint_one(
        "crates/core/src/flag.rs",
        r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub struct Flag { ready: AtomicU64 }
impl Flag {
    pub fn publish(&self) { self.ready.store(1, Ordering::Release); }
    pub fn consume(&self) -> u64 { self.ready.load(Ordering::Relaxed) }
}
"#,
    );
    assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
    let d = &rep.diagnostics[0];
    assert_eq!(d.check, "atomic-ordering");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 6);
    assert_eq!(
        d.message,
        "Relaxed load of `ready` observes a Release store (broken \
         publish/consume pair): use Acquire, or document why relaxed is sound"
    );
    let field = rep
        .atomic_fields
        .iter()
        .find(|a| a.field == "ready")
        .expect("inventory row");
    assert_eq!(field.class, "mixed");
}

#[test]
fn atomic_justification_comment_silences() {
    let rep = lint_one(
        "crates/core/src/flag.rs",
        r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub struct Flag { ready: AtomicU64 }
impl Flag {
    pub fn publish(&self) { self.ready.store(1, Ordering::Release); }
    pub fn consume(&self) -> u64 {
        // Relaxed is fine: the caller re-reads under the lock before
        // acting on the hint.
        self.ready.load(Ordering::Relaxed)
    }
}
"#,
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
}

#[test]
fn atomic_pure_counters_are_inventory_only() {
    let rep = lint_one(
        "crates/core/src/c.rs",
        r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub struct C { hits: AtomicU64 }
impl C {
    pub fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }
    pub fn get(&self) -> u64 { self.hits.load(Ordering::Relaxed) }
}
"#,
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    let field = rep
        .atomic_fields
        .iter()
        .find(|a| a.field == "hits")
        .unwrap();
    assert_eq!(field.class, "counter");
    assert_eq!(field.sites, 2);
}

#[test]
fn lock_order_cycle_is_detected() {
    let rep = lint_one(
        "crates/core/src/pair.rs",
        r#"
use std::sync::Mutex;
pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }
impl Pair {
    pub fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        let _ = (ga, gb);
    }
    pub fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        let _ = (ga, gb);
    }
}
"#,
    );
    assert_eq!(rep.lock_cycles, 1, "edges: {:?}", rep.lock_edges);
    let cyc = rep
        .diagnostics
        .iter()
        .find(|d| d.check == "lock-order" && d.message.contains("cycle"))
        .expect("cycle diagnostic");
    assert_eq!(cyc.severity, Severity::Error);
    assert!(
        cyc.message.contains("pair.a") && cyc.message.contains("pair.b"),
        "{}",
        cyc.message
    );
}

#[test]
fn lock_self_reacquire_is_detected() {
    let rep = lint_one(
        "crates/core/src/oops.rs",
        r#"
use std::sync::Mutex;
pub struct S { m: Mutex<u32> }
impl S {
    pub fn twice(&self) {
        let g1 = self.m.lock();
        let g2 = self.m.lock();
        let _ = (g1, g2);
    }
}
"#,
    );
    let d = rep
        .diagnostics
        .iter()
        .find(|d| d.check == "lock-order")
        .expect("self-deadlock diagnostic");
    assert!(
        d.message.contains("re-acquired while already held"),
        "{}",
        d.message
    );
}

#[test]
fn lock_held_across_blocking_call_warns() {
    let rep = lint_one(
        "crates/core/src/blocky.rs",
        r#"
use std::sync::Mutex;
use std::sync::mpsc::Receiver;
pub struct S { m: Mutex<u32> }
impl S {
    pub fn bad(&self, rx: &Receiver<u32>) {
        let g = self.m.lock();
        let _ = rx.recv();
        let _ = g;
    }
    pub fn good(&self, rx: &Receiver<u32>) {
        {
            let g = self.m.lock();
            let _ = g;
        }
        let _ = rx.recv();
    }
}
"#,
    );
    let warns: Vec<_> = rep
        .diagnostics
        .iter()
        .filter(|d| d.check == "lock-order")
        .collect();
    assert_eq!(warns.len(), 1, "{warns:?}");
    assert_eq!(warns[0].severity, Severity::Warning);
    assert_eq!(warns[0].line, 8);
    assert_eq!(
        warns[0].message,
        "lock `blocky.m` held across blocking call `recv(`"
    );
}

#[test]
fn guard_returning_helper_is_followed_through_self_calls() {
    // `self.lock()` resolves to the same-file helper, whose escaping
    // guard is modelled as held at the call site; the nested direct
    // acquisition then forms an edge.
    let rep = lint_one(
        "crates/core/src/helper.rs",
        r#"
use std::sync::{Mutex, MutexGuard};
pub struct S { inner: Mutex<u32>, other: Mutex<u32> }
impl S {
    fn lock(&self) -> MutexGuard<'_, u32> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
    pub fn nested(&self) {
        let g = self.lock();
        let h = self.other.lock();
        let _ = (g, h);
    }
}
"#,
    );
    assert!(
        rep.lock_edges
            .iter()
            .any(|e| e.from == "helper.inner" && e.to == "helper.other"),
        "edges: {:?}",
        rep.lock_edges
    );
}

#[test]
fn event_loop_blocking_is_flagged_only_in_scope() {
    let bad = "pub fn run() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    let rep = lint_one("crates/serve/src/http/acceptor.rs", bad);
    assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
    let d = &rep.diagnostics[0];
    assert_eq!(d.check, "event-loop");
    assert_eq!(d.line, 2);
    assert_eq!(
        d.message,
        "`thread::sleep` stalls every connection on the loop (inside the \
         acceptor readiness loop)"
    );
    // The same source outside the configured file list is fine.
    let rep = lint_one("crates/serve/src/http/mod.rs", bad);
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
}

#[test]
fn event_loop_try_recv_is_legal_blocking_recv_is_not() {
    let rep = lint_one(
        "crates/serve/src/http/acceptor.rs",
        "pub fn drain(rx: &std::sync::mpsc::Receiver<u32>) {\n    while rx.try_recv().is_ok() {}\n}\n",
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    let rep = lint_one(
        "crates/serve/src/http/acceptor.rs",
        "pub fn stall(rx: &std::sync::mpsc::Receiver<u32>) {\n    let _ = rx.recv();\n}\n",
    );
    assert_eq!(rep.diagnostics.len(), 1);
    assert!(rep.diagnostics[0].message.contains("blocking `recv()`"));
}

#[test]
fn suppression_silences_and_is_reported() {
    let rep = lint_one(
        "crates/serve/src/x.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    // cxk-lint: allow(panic-freedom) -- startup config, failing fast is correct\n    x.unwrap()\n}\n",
    );
    assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    assert_eq!(rep.suppressed.len(), 1);
    let s = &rep.suppressed[0];
    assert_eq!(s.check, "panic-freedom");
    assert_eq!(s.line, 3);
    assert_eq!(s.reason, "startup config, failing fast is correct");
}

#[test]
fn trailing_suppression_covers_its_own_line_only() {
    let rep = lint_one(
        "crates/serve/src/x.rs",
        "pub fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    x.unwrap() // cxk-lint: allow(panic-freedom) -- checked by caller\n        + y.unwrap()\n}\n",
    );
    assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
    assert_eq!(rep.diagnostics[0].line, 3);
    assert_eq!(rep.suppressed.len(), 1);
}

#[test]
fn malformed_suppressions_are_errors() {
    // Missing reason.
    let rep = lint_one(
        "crates/serve/src/x.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    // cxk-lint: allow(panic-freedom)\n    x.unwrap()\n}\n",
    );
    let msgs: Vec<&str> = rep.diagnostics.iter().map(|d| d.check).collect();
    assert!(msgs.contains(&"suppression"), "{:?}", rep.diagnostics);
    assert!(
        msgs.contains(&"panic-freedom"),
        "a malformed allow must not suppress: {:?}",
        rep.diagnostics
    );
    // Unknown check name.
    let rep = lint_one(
        "crates/core/src/x.rs",
        "// cxk-lint: allow(no-such-check) -- whatever\npub fn f() {}\n",
    );
    assert_eq!(rep.diagnostics.len(), 1);
    assert!(
        rep.diagnostics[0]
            .message
            .contains("unknown check `no-such-check`"),
        "{}",
        rep.diagnostics[0].message
    );
}

#[test]
fn json_report_round_trips_and_validates() {
    let rep = lint_one(
        "crates/serve/src/worker.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let text = rep.to_json();
    let v = json::parse(&text).expect("self-emitted JSON parses");
    json::validate_report(&v).expect("schema validates");
    assert_eq!(
        v.get("errors").and_then(|e| e.as_num()),
        Some(1.0),
        "{text}"
    );
    let diags = v.get("diagnostics").and_then(|d| d.as_arr()).unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].get("check").and_then(|c| c.as_str()),
        Some("panic-freedom")
    );
    assert_eq!(diags[0].get("line").and_then(|l| l.as_num()), Some(2.0));
    // Escaping survives the round trip.
    assert_eq!(
        diags[0].get("message").and_then(|m| m.as_str()),
        Some(rep.diagnostics[0].message.as_str())
    );
}

#[test]
fn validate_rejects_wrong_shape() {
    let v = json::parse(r#"{"version": 1, "root": "x"}"#).unwrap();
    let err = json::validate_report(&v).unwrap_err();
    assert!(err.contains("files"), "{err}");
    let v = json::parse(r#"{"version": 2}"#).unwrap();
    assert!(json::validate_report(&v).is_err());
}
