//! Fixture: a caller of the clean crate's public items.

fn main() {
    let _ = core::fold(&[]);
    core::budgeted();
}
