//! Shared result persistence for the experiment binaries.
//!
//! Every bin used to hand-roll its own `results/*.json` write; this
//! module gives them one envelope and one atomic writer. The envelope
//! carries a schema tag plus the three facts a reader needs to reproduce
//! the file — which bin wrote it, under which seed, and at which
//! `STSL_THREADS` — with the payload under `data`:
//!
//! ```json
//! {
//!   "schema": "stsl-results/v1",
//!   "bin": "table1",
//!   "seed": 42,
//!   "stsl_threads": 4,
//!   "data": { ... }
//! }
//! ```
//!
//! Files are written to a temporary sibling and renamed into place, so a
//! crashed run never leaves a truncated JSON file where a good one stood.
//!
//! [`write_results_deterministic`] omits `stsl_threads` for outputs that
//! must be bitwise identical across thread counts (the telemetry report's
//! determinism contract is checked by diffing the bytes).

use crate::results_dir;
use serde::Serialize;
use std::path::Path;

/// Schema tag stamped into every results envelope.
pub const RESULTS_SCHEMA: &str = "stsl-results/v1";

/// Serializes `data` inside the versioned envelope into
/// `results/<name>.json` (atomically). `bin` is the writing binary's
/// name, `seed` its run seed.
pub fn write_results<T: Serialize>(name: &str, bin: &str, seed: u64, data: &T) {
    let payload = serde_json::to_string_pretty(data).expect("serialize result");
    let json = envelope(bin, seed, Some(stsl_parallel::max_threads()), &payload);
    persist(&results_dir(), name, &json);
}

/// Like [`write_results`] but takes the payload as pre-rendered JSON and
/// omits the `stsl_threads` field, for outputs whose bytes must not vary
/// with the thread count.
pub fn write_results_deterministic(name: &str, bin: &str, seed: u64, data_json: &str) {
    let json = envelope(bin, seed, None, data_json);
    persist(&results_dir(), name, &json);
}

/// Renders the envelope around an already-serialized payload. The
/// envelope is assembled textually because the payload type is generic
/// and the key order must be fixed.
fn envelope(bin: &str, seed: u64, threads: Option<usize>, payload: &str) -> String {
    let threads_field = match threads {
        Some(n) => format!("\n  \"stsl_threads\": {},", n),
        None => String::new(),
    };
    // Re-indent the payload so nested objects stay readable.
    let indented = payload.replace('\n', "\n  ");
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"bin\": \"{}\",\n  \"seed\": {},{}\n  \"data\": {}\n}}\n",
        RESULTS_SCHEMA, bin, seed, threads_field, indented
    )
}

/// Writes `json` to `<dir>/<name>.json` via a temp file and rename.
fn persist(dir: &Path, name: &str, json: &str) {
    let final_path = dir.join(format!("{}.json", name));
    let tmp_path = dir.join(format!("{}.json.tmp", name));
    write_atomic(&tmp_path, &final_path, json).expect("write result file");
    println!("\nwrote {}", final_path.display());
}

fn write_atomic(tmp: &Path, dst: &Path, contents: &str) -> std::io::Result<()> {
    std::fs::write(tmp, contents)?;
    std::fs::rename(tmp, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Serialize, Value};

    #[derive(Serialize)]
    struct Payload {
        rows: Vec<u64>,
    }

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        match v {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field {name}")),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn envelope_has_schema_header_and_nested_data() {
        let json = envelope("demo", 7, Some(4), "{\n  \"rows\": [1]\n}");
        assert!(json.starts_with("{\n  \"schema\": \"stsl-results/v1\","));
        assert!(json.contains("\"bin\": \"demo\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"stsl_threads\": 4"));
        assert!(json.contains("\"rows\": [1]"));
        let v = serde_json::parse_value_str(&json).expect("valid json");
        assert_eq!(field(&v, "schema"), &Value::Str(RESULTS_SCHEMA.into()));
        assert_eq!(field(&v, "stsl_threads"), &Value::U64(4));
    }

    #[test]
    fn deterministic_envelope_omits_thread_count() {
        let json = envelope("demo", 7, None, "{}");
        assert!(!json.contains("stsl_threads"));
        let v = serde_json::parse_value_str(&json).expect("valid json");
        assert_eq!(field(&v, "seed"), &Value::U64(7));
    }

    #[test]
    fn persist_lands_atomically_in_the_given_dir() {
        let tmp = std::env::temp_dir().join(format!("stsl-results-test-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let payload = serde_json::to_string_pretty(&Payload { rows: vec![9] }).unwrap();
        persist(
            &tmp,
            "envelope_smoke",
            &envelope("test-bin", 3, Some(4), &payload),
        );
        let path = tmp.join("envelope_smoke.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!tmp.join("envelope_smoke.json.tmp").exists());
        let v = serde_json::parse_value_str(&text).unwrap();
        assert_eq!(field(&v, "bin"), &Value::Str("test-bin".into()));
        match field(field(&v, "data"), "rows") {
            Value::Array(items) => assert_eq!(items, &[Value::U64(9)]),
            other => panic!("expected array, got {other:?}"),
        }
        std::fs::remove_dir_all(&tmp).ok();
    }
}
