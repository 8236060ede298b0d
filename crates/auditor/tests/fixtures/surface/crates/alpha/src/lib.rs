//! Fixture: public items with and without callers outside this crate.

pub fn orphan() {}

pub fn used_by_benchmark() {}

pub fn used_by_tests() {}

pub fn used_by_main() {}

pub fn used_by_beta(reason: Reason) -> Outcome {
    internal_only();
    Outcome { kind: reason.kind }
}

pub struct Reason {
    pub kind: Kind,
    detail: Hidden,
}

pub struct Outcome {
    pub kind: Kind,
}

pub enum Kind {
    Only,
}

pub struct Hidden;

pub fn internal_only() {}

pub fn only_in_prose() {}

// audit: allow(public-surface) — kept public on purpose for this fixture
pub fn allowed() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
