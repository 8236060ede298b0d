//! Fixture: the package's own binary is a caller of its library.

fn main() {
    alpha::used_by_main();
}
