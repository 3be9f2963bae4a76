//! Compiles the null-call IDL (`idl/bench.idl`) at build time, exactly as
//! `spring-services` does for its service interfaces — the flat-path arms
//! measure what real generated stubs cost, not a hand-written imitation.

fn main() {
    let out_dir = std::path::PathBuf::from(std::env::var("OUT_DIR").expect("OUT_DIR"));
    let input = "idl/bench.idl";
    println!("cargo::rerun-if-changed={input}");
    let source = std::fs::read_to_string(input).unwrap_or_else(|e| panic!("{input}: {e}"));
    let rust = match spring_idl::compile(&source) {
        Ok(code) => code,
        Err(e) => panic!("{input}: {e}"),
    };
    std::fs::write(out_dir.join("bench.rs"), rust).expect("write generated stubs");
}
