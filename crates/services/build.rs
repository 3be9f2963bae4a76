//! Build script: compile the IDL sources to Rust stubs.

fn main() {
    let out_dir = std::path::PathBuf::from(std::env::var("OUT_DIR").expect("OUT_DIR"));
    for name in ["fs", "kv", "log", "topics"] {
        let input = format!("idl/{name}.idl");
        println!("cargo::rerun-if-changed={input}");
        let source = std::fs::read_to_string(&input).unwrap_or_else(|e| panic!("{input}: {e}"));
        let rust = match spring_idl::compile(&source) {
            Ok(code) => code,
            Err(e) => panic!("{input}: {e}"),
        };
        std::fs::write(out_dir.join(format!("{name}.rs")), rust).expect("write generated stubs");
    }
}
