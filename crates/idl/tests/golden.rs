//! Golden-file tests: the Rust generated for each IDL input must match its
//! committed snapshot byte-for-byte, pinning the full shape of the emitted
//! code — flat layout offsets, validate bodies, views, and the copying
//! fallback. The inputs are `golden/fixture.idl` (every construct the
//! generator emits) and the IDL the workspace builds from: the services'
//! `fs.idl` and `kv.idl`, and the bench harness's `bench.idl`.
//!
//! On a mismatch the generated text is written to `target/golden/<name>.rs`
//! and the first differing line is reported; diff the two files to see the
//! rest. Bless intentional changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p spring-idl --test golden
//! ```

use std::path::Path;

use spring_idl::compile;

/// Compiles `input` (relative to this crate) and compares the result with
/// `tests/golden/<name>.rs`.
fn check_golden(name: &str, input: &str) {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(crate_dir.join(input)).unwrap();
    let generated = compile(&src).unwrap();
    let golden_path = crate_dir.join("tests/golden").join(format!("{name}.rs"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &generated).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if generated == golden {
        return;
    }
    let workspace = crate_dir.ancestors().nth(2).unwrap();
    let out_dir = workspace.join("target/golden");
    std::fs::create_dir_all(&out_dir).unwrap();
    let actual_path = out_dir.join(format!("{name}.rs"));
    std::fs::write(&actual_path, &generated).unwrap();
    // `split`, not `lines`: two different texts differ in some segment.
    let got: Vec<&str> = generated.split('\n').collect();
    let want: Vec<&str> = golden.split('\n').collect();
    let i = (0..).find(|&i| got.get(i) != want.get(i)).unwrap();
    panic!(
        "{input} drifted from {} at line {}:\n  golden:    {}\n  generated: {}\n\
         generated code written to {}; rerun with UPDATE_GOLDEN=1 to bless",
        golden_path.display(),
        i + 1,
        want.get(i).unwrap_or(&"<end of file>"),
        got.get(i).unwrap_or(&"<end of file>"),
        actual_path.display()
    );
}

#[test]
fn fixture_matches_golden() {
    check_golden("fixture", "tests/golden/fixture.idl");
}

#[test]
fn services_fs_matches_golden() {
    check_golden("fs", "../services/idl/fs.idl");
}

#[test]
fn services_kv_matches_golden() {
    check_golden("kv", "../services/idl/kv.idl");
}

#[test]
fn bench_matches_golden() {
    check_golden("bench", "../bench/idl/bench.idl");
}
