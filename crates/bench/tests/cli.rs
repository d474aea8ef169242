//! The `figures` command line: errors print a usage line on stderr and
//! exit with status 2, never a panic; a run writes only its figure files.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("spawn figures")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr was\n{stderr}");
    assert!(stderr.contains(what), "stderr names the error: {stderr}");
    assert!(stderr.contains("usage: figures"), "stderr has the usage line: {stderr}");
    assert!(stderr.contains("available modes: all fig3"), "stderr lists the modes: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn out_without_directory_prints_usage() {
    assert_usage_error(&figures(&["fig5", "--bench-scale", "--out"]), "--out needs a directory");
}

#[test]
fn unknown_mode_prints_usage() {
    for mode in ["no-such-mode", "gate"] {
        assert_usage_error(&figures(&[mode]), &format!("unknown experiment: {mode}"));
    }
}

#[test]
fn out_directory_holds_only_the_figure_csv() {
    let cwd = std::env::temp_dir().join(format!("cagvt-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create scratch dir");
    let out = cwd.join("out");
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig5", "--bench-scale", "--out"])
        .arg(&out)
        .current_dir(&cwd)
        .output()
        .expect("spawn figures");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let names = |dir: &std::path::Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    let (in_cwd, in_out) = (names(&cwd), names(&out));
    let _ = std::fs::remove_dir_all(&cwd);
    assert_eq!(in_cwd, ["out"], "nothing is written to the working directory");
    assert_eq!(in_out, ["fig5.csv"]);
}

/// Naming a mode twice runs it once, in first-occurrence order: one set
/// of rows and one progress line per mode.
#[test]
fn duplicate_modes_run_once() {
    for args in [&["fig5", "fig5"][..], &["fig5", "fig6", "fig5"]] {
        let run = figures(&[args, &["--bench-scale"]].concat());
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        let stdout = String::from_utf8_lossy(&run.stdout);
        let rows = stdout.lines().filter(|l| l.starts_with("fig5,")).count();
        assert_eq!(rows, 8, "{args:?}: fig5 is 2 series x 4 node counts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let progress: Vec<&str> = stderr.lines().filter(|l| l.contains(" rows in ")).collect();
        assert_eq!(progress.len(), args.len() - 1, "{args:?}: {stderr}");
        assert!(progress[0].starts_with("# fig5:"), "{args:?}: {stderr}");
    }
}
