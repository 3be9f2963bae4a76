//! End-to-end IDL compiler tests: generated-code snapshots, the `idlc`
//! command line, and parser robustness properties.

use proptest::prelude::*;
use spring_idl::compile;

const FS_LIKE: &str = r#"
module demo {
    exception oops { string why; long code; };
    struct pair { double x; double y; };
    enum mode { read_only, read_write };
    typedef sequence<pair> path;
    const long max_len = 64;
    const string banner = "demo";

    interface shape {
        double area() raises (oops);
        void translate(in pair delta);
        path outline();
        mode access_mode();
    };

    [subcontract = caching]
    interface named_shape : shape {
        string name();
        void rename(in string name, out string old_name) raises (oops);
    };

    interface registry {
        void put(in string key, copy shape s) raises (oops);
        shape get(in string key) raises (oops);
        sequence<string> keys();
    };
};
"#;

#[test]
fn generates_all_expected_items() {
    let code = compile(FS_LIKE).unwrap();
    for expected in [
        // Types and constants.
        "pub struct Pair",
        "pub enum Mode",
        "pub struct Oops",
        "pub type Path = Vec<",
        "pub const MAX_LEN: i32 = 64;",
        "pub const BANNER: &str = \"demo\";",
        // Interface machinery.
        "pub static SHAPE_TYPE",
        "pub static NAMED_SHAPE_TYPE",
        "pub mod shape_ops",
        "pub struct Shape",
        "pub trait ShapeServant",
        "pub struct ShapeSkeleton",
        "pub enum ShapeError",
        // Inheritance: the derived servant trait extends the base's, and
        // the derived stub re-exposes inherited operations.
        "pub trait NamedShapeServant:",
        "ShapeServant",
        // The subcontract annotation flows into the TypeInfo.
        "ScId::from_name(\"caching\")",
        "ScId::from_name(\"singleton\")",
        // Copy-mode object parameter marshals via marshal_copy.
        "marshal_copy(&mut __call)",
        // Object-returning op unmarshals through the subcontract machinery.
        "unmarshal_object",
    ] {
        assert!(
            code.contains(expected),
            "generated code lacks {expected:?}\n---\n{code}"
        );
    }
}

#[test]
fn inherited_ops_appear_in_derived_stub_and_skeleton() {
    let code = compile(FS_LIKE).unwrap();
    // The derived client has the base method; the derived ops module
    // carries the base operation number.
    let named_section = code
        .split("pub struct NamedShape")
        .nth(1)
        .expect("NamedShape emitted");
    assert!(named_section.contains("pub fn area("));
    assert!(named_section.contains("pub fn rename("));
    assert!(code.contains("pub mod named_shape_ops"));
    let ops_section = code.split("pub mod named_shape_ops").nth(1).unwrap();
    let ops_block = &ops_section[..ops_section.find('}').unwrap()];
    assert!(ops_block.contains("AREA"));
    assert!(ops_block.contains("RENAME"));
}

#[test]
fn out_param_becomes_extra_return() {
    let code = compile(FS_LIKE).unwrap();
    // rename(in name, out old_name) -> Result<String, ...> with the out
    // value as the (single) return.
    assert!(code.contains("pub fn rename(&self, name: &str) -> ::std::result::Result<String"));
}

#[test]
fn idlc_cli_roundtrip() {
    let dir = std::env::temp_dir().join(format!("idlc-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("demo.idl");
    let output = dir.join("demo.rs");
    std::fs::write(&input, FS_LIKE).unwrap();

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_idlc"))
        .arg(&input)
        .arg("-o")
        .arg(&output)
        .status()
        .unwrap();
    assert!(status.success());
    let generated = std::fs::read_to_string(&output).unwrap();
    assert!(generated.contains("pub struct Shape"));

    // Bad input: a helpful positioned error and a failing exit code.
    std::fs::write(&input, "interface broken {").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_idlc"))
        .arg(&input)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unterminated"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hash_collision_is_rejected_with_advice() {
    // Manufacture a collision is impractical; instead check duplicate names
    // across multiple inheritance, which uses the same guard path.
    let err = compile(
        r#"
        interface a { void f(); };
        interface b { void f(); };
        interface c : a, b { };
        "#,
    )
    .unwrap_err();
    assert!(err.message.contains("more than once"));
}

#[test]
fn operations_named_like_the_stubs_own_methods_are_rejected() {
    // Each would compile to a client with two methods of that name.
    let err =
        compile("interface thing {\n    long copy();\n    void obj(in long x);\n};").unwrap_err();
    assert_eq!(
        err.to_string(),
        "2:5: operation \"copy\" in \"thing\" collides with the client stub's own method \
         `copy`; rename it"
    );
    for op in ["obj", "into_obj", "from_obj", "unreferenced"] {
        let err = compile(&format!("module m {{ interface t {{ void {op}(); }}; }};")).unwrap_err();
        assert_eq!((err.line, err.col), (1, 26), "{err}");
        assert!(err.message.contains(&format!("`{op}`")), "{err}");
    }
    // An attribute's accessors are prefixed, so `attribute long obj` is fine.
    compile("interface thing { attribute long obj; };").unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiler_never_panics_on_arbitrary_input(src in ".{0,200}") {
        let _ = compile(&src);
    }

    #[test]
    fn compiler_never_panics_on_idl_shaped_input(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("interface".to_owned()),
                Just("module".to_owned()),
                Just("struct".to_owned()),
                Just("{".to_owned()),
                Just("}".to_owned()),
                Just(";".to_owned()),
                Just(":".to_owned()),
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just("in".to_owned()),
                Just("void".to_owned()),
                Just("long".to_owned()),
                Just("sequence".to_owned()),
                Just("<".to_owned()),
                Just(">".to_owned()),
                "[a-z]{1,6}",
            ],
            0..60,
        )
    ) {
        let src = tokens.join(" ");
        let _ = compile(&src);
    }
}
