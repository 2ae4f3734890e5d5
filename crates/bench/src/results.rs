//! Result persistence: one envelope and one atomic writer for every
//! experiment.
//!
//! The envelope carries a schema tag plus the two facts a reader needs to
//! reproduce the file — which experiment wrote it and under which seed —
//! with the payload under `data`:
//!
//! ```json
//! {
//!   "schema": "stsl-results/v1",
//!   "bin": "table1",
//!   "seed": 42,
//!   "data": { ... }
//! }
//! ```
//!
//! It records no thread count: every deterministic result is bitwise
//! identical for any `STSL_THREADS`, and the one wall-clock experiment
//! (`parallel_speedup`) records its threads per row inside `data`.
//!
//! Files are written to a temporary sibling and renamed into place, so a
//! crashed run never leaves a truncated JSON file where a good one stood.

use crate::{Experiment, Preset};
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag stamped into every results envelope.
pub const RESULTS_SCHEMA: &str = "stsl-results/v1";

/// Runs `exp` at `preset` under `seed` and writes its artifacts into
/// `dir`: the extra files first, then `<stem>.json`. Returns the text
/// report and the JSON path. This is the one path from a run to disk.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn run_experiment(
    exp: &Experiment,
    preset: Preset,
    seed: u64,
    dir: &Path,
) -> io::Result<(String, PathBuf)> {
    let outcome = (exp.run)(preset, seed);
    std::fs::create_dir_all(dir)?;
    for (name, bytes) in &outcome.files {
        std::fs::write(dir.join(name), bytes)?;
    }
    let path = dir.join(format!("{}.json", exp.stem));
    let tmp = dir.join(format!("{}.json.tmp", exp.stem));
    std::fs::write(&tmp, envelope(exp.id, seed, &outcome.data))?;
    std::fs::rename(&tmp, &path)?;
    Ok((outcome.report, path))
}

/// Renders the envelope around an already-serialized payload. The
/// envelope is assembled textually because payloads differ in type and
/// the key order must be fixed.
fn envelope(bin: &str, seed: u64, payload: &str) -> String {
    // Re-indent the payload so nested objects stay readable.
    let indented = payload.replace('\n', "\n  ");
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"bin\": \"{}\",\n  \"seed\": {},\n  \"data\": {}\n}}\n",
        RESULTS_SCHEMA, bin, seed, indented
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

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
        let json = envelope("demo", 7, "{\n  \"rows\": [1]\n}");
        assert!(json.starts_with("{\n  \"schema\": \"stsl-results/v1\","));
        assert!(json.contains("\"bin\": \"demo\""));
        assert!(!json.contains("stsl_threads"));
        let v = serde_json::parse_value_str(&json).expect("valid json");
        assert_eq!(field(&v, "schema"), &Value::Str(RESULTS_SCHEMA.into()));
        assert_eq!(field(&v, "seed"), &Value::U64(7));
        match field(field(&v, "data"), "rows") {
            Value::Array(items) => assert_eq!(items, &[Value::U64(1)]),
            other => panic!("expected array, got {other:?}"),
        }
    }
}
