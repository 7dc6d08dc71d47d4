//! The command line rejects what it does not understand: a mistyped
//! flag, a missing or unparseable value, and an unknown command each
//! exit non-zero naming the offender above the usage text — never a
//! run on silently defaulted settings.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_httpsrr-cli")).args(args).output().expect("spawn httpsrr-cli")
}

#[test]
fn bad_flags_and_unknown_commands_fail_naming_the_offender() {
    for (args, named) in [
        (&["study", "--stride", "x"][..], "--stride"),
        (&["study", "--stride"][..], "--stride"),
        (&["run", "--dayz", "3"][..], "--dayz"),
        (&["serve", "--rates", "4,,x"][..], "--rates"),
        (&["bench"][..], "unknown command \"bench\""),
        (&["bench", "--store"][..], "unknown command \"bench\""),
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(named), "{args:?} must name {named}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} must print the usage: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not report anything");
    }
}

#[test]
fn a_well_formed_flag_still_runs() {
    let out = cli(&["audit", "--day", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 9"));
}
