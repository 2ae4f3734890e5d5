//! The benchmark's own checks: metric names are legal, `BENCHMARK.json`
//! agrees with the catalogue, and every run emits the metrics it owes.

use std::collections::BTreeMap;

use stsl_perfbench::cli::{self, Args};
use stsl_perfbench::metrics::{valid_name, Better, END_TO_END, PER_LAYER};
use stsl_perfbench::workload::{Scale, Workload};

/// A parsed JSON value: just enough JSON for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn better(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

fn smoke(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    }
}

/// Runs `args`, returning the parsed result line and the names of every
/// metric the report printed.
fn run(args: &Args) -> (Json, Vec<&'static str>) {
    let mut out = Vec::new();
    let outcome = cli::execute(args, &mut out).expect("the run completes");
    let text = String::from_utf8(out).unwrap();
    assert!(outcome.correct, "a gate failed:\n{text}");
    let last = text.lines().last().expect("a result line");
    (
        Json::parse(last),
        outcome.metrics.iter().map(|(n, _)| *n).collect(),
    )
}

#[test]
fn metric_names_are_legal_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(valid_name(name), "illegal metric name {name}");
        assert!(seen.insert(name), "metric {name} is listed twice");
    }
    assert!(!valid_name("bad name") && !valid_name(".lead") && !valid_name(""));
}

#[test]
fn benchmark_json_agrees_with_the_catalogue() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let e2e: Vec<(&str, &str, &str)> = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str(),
            )
        })
        .collect();
    let tracked: Vec<(&str, &str, &str)> = END_TO_END
        .iter()
        .filter(|m| m.tracked)
        .map(|m| (m.name, m.unit, better(m.better)))
        .collect();
    assert_eq!(e2e, tracked);
    assert!(END_TO_END
        .iter()
        .filter(|m| m.tracked)
        .all(|m| m.workloads == Workload::ALL));
    let per_layer: Vec<(&str, &str, &str)> = b
        .get("per_layer")
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str(),
            )
        })
        .collect();
    let catalogue: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, better(m.better)))
        .collect();
    assert_eq!(per_layer, catalogue);
}

#[test]
fn every_workload_emits_its_end_to_end_metrics() {
    for w in Workload::ALL {
        let (result, printed) = run(&smoke(w, false));
        let owed: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&w))
            .map(|m| m.name)
            .collect();
        assert_eq!(printed, owed, "{}", w.name());
        assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
        let tracked: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.tracked)
            .map(|m| m.name)
            .collect();
        let mut emitted = result.get("metrics").keys();
        emitted.sort_unstable();
        let mut want = tracked.clone();
        want.sort_unstable();
        assert_eq!(emitted, want, "{}", w.name());
        for name in tracked {
            let Json::Num(v) = result.get("metrics").get(name).get("value") else {
                panic!()
            };
            assert!(*v > 0.0, "{} {name} = {v}", w.name());
        }
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_metric() {
    for w in Workload::ALL {
        let args = smoke(w, true);
        let (result, printed) = run(&args);
        let all: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(printed, all, "{}", w.name());
        let mut emitted = result.get("metrics").keys();
        emitted.sort_unstable();
        let mut want = all.clone();
        want.sort_unstable();
        assert_eq!(emitted, want, "{}", w.name());
        let spans = Json::parse(&std::fs::read_to_string(cli::trace_path(&args)).unwrap());
        let names: Vec<&str> = spans
            .get("spans")
            .arr()
            .iter()
            .map(|s| s.get("name").str())
            .collect();
        for needed in [
            "inputs",
            "split.round",
            "split.client_fwd",
            "split.server_step",
            "split.eval",
            "nn.pass",
        ] {
            assert!(names.contains(&needed), "{}: no {needed} span", w.name());
        }
    }
}

#[test]
fn bad_arguments_are_rejected() {
    let args = |s: &str| cli::parse(s.split_whitespace().map(String::from));
    assert!(args("--workload sync-paper --seed 1 --seconds 2 --trace 0").is_ok());
    assert!(args("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
    assert!(args("--workload sync-paper --seed x --seconds 2 --trace 0").is_err());
    assert!(args("--workload sync-paper --seed 1 --seconds 2 --trace 2").is_err());
    assert!(args("--workload sync-paper --seed 1 --seconds 2").is_err());
    assert!(args("--workload sync-paper --seed 1 --seconds 2 --trace 0 --extra 1").is_err());
}
