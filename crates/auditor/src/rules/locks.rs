//! **lock-discipline** — in `crates/serve/src`, a `RwLock`/`Mutex` guard
//! must never be held across a channel send or socket I/O call.
//!
//! The serving design depends on it: handlers clone the slot's `Arc` under a
//! read lock and then work lock-free, so a hot reload can never block (or be
//! blocked by) a slow client. A guard held across `send`/`write_all`/...
//! couples lock hold time to peer behavior — the classic path to a stalled
//! registry swap.
//!
//! Detection is lexical but scope-aware: a guard is born at a `.read()`,
//! `.write()`, or `.lock()` call with an empty argument list; a `let`-bound
//! guard lives to the end of its enclosing block (or an explicit
//! `drop(name)`), a temporary guard to the end of its statement. Any I/O
//! identifier invoked while a guard is live is a finding.

use super::{RuleId, Workspace};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Channel and socket operations that must not run under a guard.
const IO_CALLS: [&str; 14] = [
    "send",
    "try_send",
    "recv",
    "try_recv",
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write_response",
    "read_request",
    "connect",
];

/// Run the rule over every in-scope file.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        if !p.contains("crates/serve/src/") {
            continue;
        }
        check_file(file, &mut out);
    }
    out
}

#[derive(Debug)]
struct LiveGuard {
    /// Brace depth at which the guard was created; a `let` guard dies when
    /// the depth drops below this.
    depth: usize,
    /// Binding name for `let` guards (`drop(name)` releases them); `None`
    /// for temporaries, which die at the next `;`.
    name: Option<String>,
    /// Line of the acquiring call, for the diagnostic.
    line: u32,
    /// The acquiring method (`read`/`write`/`lock`).
    acquired_by: String,
}

fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let rule = RuleId::LockDiscipline.id();
    let code = file.code_indexes();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;

    for (ci, &i) in code.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        let t = &file.tokens[i];

        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            // A statement cannot span its enclosing block's close: both
            // temporaries and out-of-scope `let` guards die here.
            guards.retain(|g| g.name.is_some() && g.depth <= depth);
        } else if t.is_punct(';') {
            guards.retain(|g| g.name.is_some());
        }

        // Guard birth: `.read()` / `.write()` / `.lock()` with no arguments.
        if (t.is_ident("read") || t.is_ident("write") || t.is_ident("lock"))
            && ci > 0
            && file.tokens[code[ci - 1]].is_punct('.')
            && matches!(code.get(ci + 1), Some(&a) if file.tokens[a].is_punct('('))
            && matches!(code.get(ci + 2), Some(&b) if file.tokens[b].is_punct(')'))
        {
            // A `let` binding holds the guard only when the call chain ends
            // at the acquire (possibly via guard-preserving adapters like
            // `.unwrap()` / `.unwrap_or_else(...)`); a chain that continues
            // into any other method produces a temporary guard instead.
            let name = if chain_ends_in_guard(file, &code, ci) {
                let_binding_name(file, &code, ci)
            } else {
                None
            };
            guards.push(LiveGuard {
                depth,
                name,
                line: t.line,
                acquired_by: t.text.clone(),
            });
            continue;
        }

        // Explicit `drop(name)` releases a named guard.
        if t.is_ident("drop")
            && matches!(code.get(ci + 1), Some(&a) if file.tokens[a].is_punct('('))
        {
            if let Some(&arg) = code.get(ci + 2) {
                let arg = &file.tokens[arg];
                guards.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
            }
            continue;
        }

        // I/O under a live guard.
        if IO_CALLS.contains(&t.text.as_str())
            && matches!(code.get(ci + 1), Some(&a) if file.tokens[a].is_punct('('))
        {
            if let Some(g) = guards.last() {
                out.push(Diagnostic::new(
                    rule,
                    &file.path,
                    t.line,
                    format!(
                        "{}() runs while a lock guard (acquired via .{}() on line {}) is live; \
                         clone what you need, drop the guard, then do I/O",
                        t.text, g.acquired_by, g.line
                    ),
                ));
            }
        }
    }
}

/// Adapters that pass the guard through: the value after the chain is still
/// the lock guard.
const GUARD_ADAPTERS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "into_inner"];

/// Does the method chain starting at the acquire end while still holding the
/// guard (directly, or via [`GUARD_ADAPTERS`])?
fn chain_ends_in_guard(file: &SourceFile, code: &[usize], acquire_ci: usize) -> bool {
    // Step past the acquire's `()`.
    let mut j = acquire_ci + 3;
    loop {
        // At a chain boundary: guard-valued unless another method follows.
        let Some(&dot) = code.get(j) else { return true };
        if !file.tokens[dot].is_punct('.') {
            return true;
        }
        let Some(&m) = code.get(j + 1) else {
            return true;
        };
        if !GUARD_ADAPTERS.contains(&file.tokens[m].text.as_str()) {
            return false;
        }
        // Skip the adapter's balanced argument list.
        let Some(&open) = code.get(j + 2) else {
            return true;
        };
        if !file.tokens[open].is_punct('(') {
            return false;
        }
        let mut depth = 1usize;
        j += 3;
        while j < code.len() && depth > 0 {
            if file.tokens[code[j]].is_punct('(') {
                depth += 1;
            } else if file.tokens[code[j]].is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
    }
}

/// If the guard-acquiring expression is the initializer of a `let`, return
/// the binding name: scan back to the statement start and expect
/// `let [mut] <name> ... = ...`.
fn let_binding_name(file: &SourceFile, code: &[usize], acquire_ci: usize) -> Option<String> {
    let mut j = acquire_ci;
    let mut paren = 0usize;
    while j > 0 {
        j -= 1;
        let t = &file.tokens[code[j]];
        if t.is_punct(')') {
            paren += 1;
        } else if t.is_punct('(') {
            if paren == 0 {
                return None; // crossed into an enclosing call: not a let init
            }
            paren -= 1;
        } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        } else if t.is_ident("let") {
            let mut k = j + 1;
            if matches!(code.get(k), Some(&m) if file.tokens[m].is_ident("mut")) {
                k += 1;
            }
            return code.get(k).map(|&n| file.tokens[n].text.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    fn diags(src: &str) -> Vec<Diagnostic> {
        let w = Workspace {
            files: vec![SourceFile::parse(
                PathBuf::from("crates/serve/src/registry.rs"),
                src,
            )],
            ..Default::default()
        };
        check(&w)
    }

    #[test]
    fn send_under_let_guard_trips() {
        let d = diags(
            "fn f(&self) {\n    let slots = self.slots.read();\n    tx.send(slots.len());\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("send()"));
        assert!(d[0].message.contains(".read() on line 2"));
    }

    #[test]
    fn io_after_scope_exit_is_fine() {
        let d = diags(
            "fn f(&self) {\n    let n = {\n        let slots = self.slots.read();\n        slots.len()\n    };\n    tx.send(n);\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn drop_releases_named_guard() {
        let d = diags(
            "fn f(&self) {\n    let g = self.slots.write();\n    drop(g);\n    stream.write_all(b\"x\");\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn temporary_guard_dies_at_its_statement() {
        let d = diags("fn f(&self) { let n = self.slots.read().len(); tx.send(n); }\n");
        assert!(d.is_empty(), "temporary dies at its `;`: {d:?}");
    }

    #[test]
    fn io_inside_guard_holding_statement_trips() {
        let d = diags("fn f(&self) { self.slots.read().iter().for_each(|e| tx.send(e).ok()); }\n");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn let_bound_adapter_chain_stays_a_guard() {
        let d = diags(
            "fn f(&self) {\n    let slots = self.slots.write().unwrap_or_else(std::sync::PoisonError::into_inner);\n    tx.send(slots.len());\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains(".write() on line 2"));
    }

    #[test]
    fn clean_clone_then_send_passes() {
        let d = diags(
            "fn get(&self) -> Option<Arc<Entry>> {\n    self.slots.read().get(name).cloned()\n}\nfn notify(&self, tx: &Sender<u64>) {\n    let v = self.get();\n    tx.send(1).ok();\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn io_read_with_args_is_not_a_guard() {
        let d = diags(
            "fn f(r: &mut impl Read, tx: &Sender<u8>) {\n    let mut buf = [0u8; 4];\n    r.read_exact(&mut buf);\n    tx.send(buf[0]);\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_scope_core_is_ignored() {
        let w = Workspace {
            files: vec![SourceFile::parse(
                PathBuf::from("crates/core/src/engine.rs"),
                "fn f() { let g = m.lock(); tx.send(1); }",
            )],
            ..Default::default()
        };
        assert!(check(&w).is_empty());
    }
}
