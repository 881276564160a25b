//! The golden-file helpers of every frozen-digest test. The cluster
//! package's integration tests include this file with `#[path]`, so both
//! packages check goldens with one function.

// Each test binary compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

/// FNV-1a: a digest that stays the same across toolchains (the std hashers
/// promise no such thing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The repository's `tests/golden` directory: the nearest one at or above
/// the including package's manifest directory.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("tests/golden"))
        .find(|dir| dir.is_dir())
        .expect("a tests/golden directory above the package")
}

/// Compare `actual` against the checked-in golden `tests/golden/{name}`, or
/// rewrite it when `UPDATE_GOLDEN` is set. A mismatch names the first line
/// that differs. `regen` is the command that regenerates the file, quoted
/// in the failure message.
pub fn check_golden(name: &str, actual: &str, regen: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if actual != expected {
        let (mut a, mut e) = (actual.lines(), expected.lines());
        let first = (1..)
            .map(|n| (n, a.next(), e.next()))
            .find(|(_, a, e)| a != e)
            .map(|(n, a, e)| {
                format!(
                    "line {n}\n  actual:   {}\n  expected: {}",
                    a.unwrap_or("<end of output>"),
                    e.unwrap_or("<end of file>")
                )
            })
            .unwrap_or_else(|| "a line ending".into());
        panic!(
            "output diverged from {} at {first}\nan intended change regenerates it with `{regen}`",
            path.display()
        );
    }
}
