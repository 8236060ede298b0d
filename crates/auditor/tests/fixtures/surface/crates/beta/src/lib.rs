//! Fixture: another crate calls alpha. This comment names `only_in_prose`,
//! which must not keep it alive.

fn call() {
    let _ = alpha::used_by_beta;
    let _ = "only_in_prose";
}
