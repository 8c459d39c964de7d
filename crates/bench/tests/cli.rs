//! The `kcc` command line, pinned from outside. A flag the command does
//! not take, or whose value is missing or does not parse, exits 2 naming
//! the flag before anything binds or opens (so nothing reaches stdout).
//! Over one generated 3-vantage corpus, every input shape `report` and
//! `watch` take prints what it printed when these digests were taken:
//! exit code, stdout and stderr as one digest per case, the tool's own
//! name at the head of an error line read as `TOOL`.

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use kcc_tracegen::universe::UniverseConfig;
use kcc_tracegen::{vantage_names, write_vantage_mrt, Mar20Config, MultiVantageConfig};

const KCC: &str = env!("CARGO_BIN_EXE_kcc");

fn kcc(dir: &Path, args: &[&str]) -> Output {
    Command::new(KCC).args(args).current_dir(dir).output().expect("run kcc")
}

fn refused(args: &[&str], named: &str) {
    let out = kcc(&std::env::temp_dir(), args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "kcc {args:?}: {stderr}");
    assert!(stderr.contains(named), "kcc {args:?} does not name {named}: {stderr}");
    assert!(out.stdout.is_empty(), "kcc {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn every_subcommand_refuses_a_bad_value_and_an_unknown_flag() {
    // `--listen` and `--duration` bound a daemon that ignored the bad
    // flag to an ephemeral port and one second.
    let daemon = ["daemon", "--listen", "127.0.0.1:0", "--duration", "1"];
    refused(&[&daemon[..], &["--route-server", "65000@not-an-ip"]].concat(), "--route-server");
    refused(&[&daemon[..], &["--mrt-rotate", "1e5"]].concat(), "--mrt-rotate");
    refused(&[&daemon[..], &["--clamp"]].concat(), "--clamp");
    refused(&["report", "--epoch", "12x", "x.mrt"], "--epoch");
    refused(&["report", "--watch", "x.mrt"], "--watch");
    refused(&["report", "x.mrt", "--threads"], "--threads");
    refused(&["watch", "--threads", "x", "x.mrt"], "--threads");
    refused(&["watch", "--follow", "x.mrt"], "--follow");
    refused(&["figures", "all", "--seed", "7x"], "--seed");
    refused(&["figures", "all", "--sede", "7"], "--sede");
    refused(&["figures", "fig9"], "fig9");
    // The test harnesses are gone from the product: their flags are
    // refused, not read as input paths.
    refused(&["watch", "--soak", "9e4"], "--soak");
    refused(&["watch", "--eval"], "--eval");
    // No subcommand, or one `kcc` does not have: usage on stderr.
    for args in [&[][..], &["corpus"], &["--soak"]] {
        refused(args, "usage: kcc <command>");
    }
}

#[test]
fn a_record_before_the_epoch_fails_with_the_clamp_hint() {
    let dir = corpus("hint");
    for command in ["report", "watch"] {
        let out = kcc(&dir, &[command, "--epoch", MIDDAY, "rrc00.mrt"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "kcc {command}: {stderr}");
        assert!(stderr.contains("precedes the stream epoch"), "kcc {command}: {stderr}");
        assert!(stderr.contains("re-run with --clamp"), "kcc {command} gives no hint: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A fresh directory holding one small generated day as three vantage
/// files (`rrc00.mrt` …), the same three files under `day/`, and an
/// empty `empty/`.
fn corpus(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kcc_cli_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("day")).unwrap();
    fs::create_dir_all(dir.join("empty")).unwrap();
    let universe = UniverseConfig {
        n_collectors: 3,
        n_peers: 9,
        n_sessions: 12,
        n_transits: 8,
        n_origins: 40,
        n_prefixes_v4: 120,
        n_prefixes_v6: 12,
        ..Default::default()
    };
    let base = Mar20Config { target_announcements: 3_000, universe, ..Default::default() };
    let cfg = MultiVantageConfig { base, force_second_granularity: Vec::new() };
    let names = vantage_names(&cfg.base);
    assert_eq!(names, ["rrc00", "rrc01", "rrc02"]);
    for name in &names {
        let file = dir.join(format!("{name}.mrt"));
        let writer = BufWriter::new(fs::File::create(&file).unwrap());
        write_vantage_mrt(&cfg, name, writer).unwrap();
        fs::copy(&file, dir.join("day").join(format!("{name}.mrt"))).unwrap();
    }
    dir
}

/// Runs `kcc command args` in `dir`: its exit code, stdout and stderr
/// (with `kcc command` at the head of a line read as `TOOL`), and their
/// FNV-1a 64-bit digest.
fn digest(dir: &Path, command: &str, args: &[&str]) -> (u64, String) {
    let out = kcc(dir, &[&[command], args].concat());
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    let stderr = stderr.replace(&format!("kcc {command}: "), "TOOL: ");
    let text = format!("{:?}\n{stdout}\0{stderr}", out.status.code());
    let fnv = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    (fnv, text)
}

/// Checks every `(args, digest)` case of one subcommand, reporting all
/// mismatches at once.
fn pinned(command: &str, cases: &[(&[&str], u64)]) {
    let dir = corpus(command);
    let mut wrong = Vec::new();
    for &(args, want) in cases {
        let (got, shown) = digest(&dir, command, args);
        if got != want {
            wrong
                .push(format!("kcc {command} {args:?}: {got:#018x}, pinned {want:#018x}\n{shown}"));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Noon of the generated day (2020-03-15 UTC): as `--epoch`, every
/// record of the day's first half precedes it.
const MIDDAY: &str = "1584273600";

#[test]
fn report_output_is_pinned() {
    pinned(
        "report",
        &[
            (&["rrc00.mrt", "rrc01.mrt", "rrc02.mrt"], 0x084b_c7e3_2780_bfa8),
            // A directory is one rotated feed named after itself (it was
            // one collector per file: 0x084b_c7e3_2780_bfa8, the files'
            // digest), and an empty one leaves no record to take the day
            // from (it was "no *.mrt files in empty": 0xd5a6_1766_0c4c_90c6).
            (&["day"], 0xf7e3_a4ec_b648_b105),
            (
                &["--clamp", "--epoch", MIDDAY, "rrc00.mrt", "rrc01.mrt", "rrc02.mrt"],
                0x09c9_fe2d_2680_015f,
            ),
            (&["empty"], 0x9200_1ba2_3816_c6d9),
            (&["rrc00.mrt", "missing.mrt"], 0x974b_c725_c7fc_df15),
        ],
    );
}

#[test]
fn watch_output_is_pinned() {
    pinned(
        "watch",
        &[
            (&["rrc00.mrt", "rrc01.mrt", "rrc02.mrt"], 0x8f64_6a6e_cabd_0abe),
            (&["day"], 0x117f_5485_9fea_94bf),
            (
                &["--clamp", "--epoch", MIDDAY, "rrc00.mrt", "rrc01.mrt", "rrc02.mrt"],
                0x74e7_ae2a_df21_12a4,
            ),
            (&["--train", "rrc00.mrt", "rrc01.mrt", "rrc02.mrt"], 0x00ce_ddd4_392b_a614),
            (&["empty"], 0x9200_1ba2_3816_c6d9),
            (&["rrc00.mrt", "missing.mrt"], 0x974b_c725_c7fc_df15),
        ],
    );
}
