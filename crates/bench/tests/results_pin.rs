//! `results/<name>.txt` is the stdout of harness `<name>`, byte for
//! byte: every figure harness that finishes in seconds in the debug
//! profile is rerun here and compared with its recorded file, so a
//! change that moves a number a figure prints fails `cargo test`. The
//! slow ones (`fig7 10000`, every `fig5`) are checked from a release
//! build by `scripts/regen_results.sh --check`, which also holds the
//! argument list for all of them.

use std::path::Path;
use std::process::Command;

fn pinned(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("spawn harness");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let recorded = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.txt"));
    let recorded = std::fs::read(&recorded).expect("recorded output exists");
    assert!(
        out.stdout == recorded,
        "results/{name}.txt is stale; the harness now prints:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

macro_rules! pins {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            pinned(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

pins!(
    table1,
    table2,
    table3,
    fig3,
    fig4,
    fig6,
    fig8,
    ablation_loss
);
