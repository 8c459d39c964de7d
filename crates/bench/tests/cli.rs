//! The command-line tools refuse a flag whose value does not parse: exit
//! 2 with the flag named on stderr, before binding a socket or opening an
//! input (so nothing reaches stdout).

use std::process::Command;

fn refused(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin} {args:?} does not name {flag}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn unparsable_flag_values_exit_2_naming_the_flag() {
    // `--listen` and `--duration` bound a daemon that ignored the bad
    // value to an ephemeral port and one second.
    refused(
        env!("CARGO_BIN_EXE_kccd"),
        &["--listen", "127.0.0.1:0", "--duration", "1", "--route-server", "65000@not-an-ip"],
        "--route-server",
    );
    refused(env!("CARGO_BIN_EXE_kcc-corpus"), &["--epoch", "12x", "x.mrt"], "--epoch");
    refused(env!("CARGO_BIN_EXE_kcc-watch"), &["--threads", "x", "x.mrt"], "--threads");
}
