//! Fixture: an integration test is a caller.

#[test]
fn calls() {
    alpha::used_by_tests();
}
