//! Helpers shared by the frozen-digest tests of the root package.

use std::path::PathBuf;

/// FNV-1a: a digest that stays the same across toolchains (the std hashers
/// promise no such thing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compare `actual` against the checked-in golden `tests/golden/{name}`, or
/// rewrite it when `UPDATE_GOLDEN` is set. `regen` is the command that
/// regenerates it, quoted in the failure message.
pub fn check_golden(name: &str, actual: &str, regen: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "output diverged from {}; an intended change regenerates it with `{regen}`",
        path.display()
    );
}
