//! analyze-as: crates/dse/src/fixture.rs
//! D004: `DefaultHasher` and `RandomState` anywhere in first-party
//! non-test code, imports included. Strings, comments and test regions
//! are exempt; a pragma suppresses with a reason.

use std::collections::hash_map::DefaultHasher; //~ D004
use std::hash::{BuildHasher, Hash, Hasher};

fn fingerprint(text: &str) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new(); //~ D004
    text.hash(&mut hasher);
    hasher.finish()
}

fn seeded() -> u64 {
    std::collections::hash_map::RandomState::new().hash_one(1u8) //~ D004
}

fn mentioned() -> &'static str {
    // A DefaultHasher in a comment is no hazard.
    "nor is RandomState in a string"
}

fn vouched(text: &str) -> u64 {
    // cimloop-analyze: allow(D004, reason = "fixture: in-process only, never persisted or compared")
    let mut hasher = DefaultHasher::new(); //~ allowed D004
    text.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn hashes_in_tests_are_fine() {
        let _ = std::collections::hash_map::DefaultHasher::new();
    }
}
