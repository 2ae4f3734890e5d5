//! The experiment registry and the `stsl-exp` command line, end to end.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;
use stsl_bench::{find, run_experiment, Preset, EXPERIMENTS};

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn ids_and_stems_are_unique() {
    for (i, a) in EXPERIMENTS.iter().enumerate() {
        for b in &EXPERIMENTS[i + 1..] {
            assert_ne!(a.id, b.id, "duplicate id");
            assert_ne!(a.stem, b.stem, "{} and {} share a results file", a.id, b.id);
        }
    }
}

#[test]
fn fleet_default_seed_is_the_shared_row_seed() {
    let fleet = find("fleet_sweep").expect("registered");
    assert_eq!(fleet.seed, stsl_split::FleetConfig::crossval64().seed);
}

#[test]
fn committed_envelopes_name_their_experiment() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = 0;
    for exp in EXPERIMENTS {
        let Ok(text) = std::fs::read_to_string(results.join(format!("{}.json", exp.stem))) else {
            continue;
        };
        let v = serde_json::parse_value_str(&text).expect("committed results parse");
        if field(&v, "schema").is_none() {
            continue; // written before the envelope existed
        }
        assert_eq!(
            field(&v, "bin"),
            Some(&Value::Str(exp.id.into())),
            "results/{}.json",
            exp.stem
        );
        checked += 1;
    }
    assert!(checked > 0, "no committed envelope found");
}

#[test]
fn quick_run_writes_the_envelope() {
    let exp = find("comm_cost").expect("registered");
    let dir = std::env::temp_dir().join(format!("stsl-exp-test-{}", std::process::id()));
    let (report, path) = run_experiment(exp, Preset::Quick, exp.seed, &dir).expect("run");
    let text = std::fs::read_to_string(&path).expect("results file");
    let tmp_left = dir.join("comm.json.tmp").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert!(!tmp_left, "the temporary sibling is renamed into place");
    assert_eq!(path.file_name().unwrap(), "comm.json");
    assert!(report.contains("fedavg"));
    assert!(text.starts_with("{\n  \"schema\": \"stsl-results/v1\",\n  \"bin\": \"comm_cost\",\n  \"seed\": 17,\n  \"data\": {"));
    assert!(!text.contains("stsl_threads"));
}

/// Each malformed command line exits 2 and names the offending token.
#[test]
fn usage_errors_exit_2_naming_the_token() {
    for (args, token) in [
        (&["tabel1"][..], "unknown experiment \"tabel1\""),
        (&["fig4", "--quik"], "unknown flag \"--quik\""),
        (&["all", "fig4"], "stray argument \"fig4\""),
        (
            &["fig4", "--seed", "x"],
            "--seed expects an integer, got \"x\"",
        ),
        (&["fig4", "--full"], "fig4 has no full preset"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stsl-exp"))
            .args(args)
            .env("STSL_RESULTS", std::env::temp_dir())
            .output()
            .expect("spawn stsl-exp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: {stderr}");
    }
}
