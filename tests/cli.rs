//! The command line rejects what it does not understand: a mistyped
//! flag, a missing, unparseable or out-of-range value, and an unknown
//! command each exit non-zero naming the offender above the usage text
//! — never a run on silently defaulted or clamped settings.

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
        (&["serve", "--rates", "inf"][..], "--rates"),
        (&["serve", "--rates", "2,nan"][..], "--rates"),
        (&["serve", "--rates", "-4"][..], "--rates"),
        (&["serve", "--rates", "0"][..], "--rates"),
        (&["serve", "--clients", "0"][..], "--clients"),
        (&["serve", "--workers", "0"][..], "--workers"),
        (&["serve", "--phase-ms", "0"][..], "--phase-ms"),
        (&["serve", "--policy", "lru"][..], "unknown flag --policy"),
        (&["serve", "--population", "0"][..], "--population"),
        (&["serve", "--list", "0"][..], "--list"),
        (&["serve", "--list", "200", "--population", "100"][..], "--population"),
        (&["study", "--list", "0"][..], "--list"),
        (&["run", "--list", "0", "--population", "0"][..], "--list"),
        (&["bench"][..], "unknown command \"bench\""),
        (&["bench", "--store"][..], "unknown command \"bench\""),
        (&["compact", "--store", "x"][..], "unknown command \"compact\""),
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
