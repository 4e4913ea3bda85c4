//! The benchmark's own contract: its catalogue matches `BENCHMARK.json`,
//! a seed fixes every count and quality metric, and the per-layer busy
//! times fit inside the traced wall.

use std::collections::BTreeMap;
use std::sync::Mutex;

use perfbench::{run, Config, Kind, Report, WorkloadName, BUSY_METRICS, COUNT_METRICS, METRICS};

/// Runs share the process-global metrics registry, so they take turns.
static RUNS: Mutex<()> = Mutex::new(());

fn small_run(workload: WorkloadName, seed: u64, trace: bool) -> Report {
    let _turn = RUNS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let report = run(&Config {
        workload,
        seed,
        seconds: 1e-3,
        trace,
        scale: 0.02,
        trace_out: None,
    });
    assert!(
        report.correct(),
        "{} failed checks: {:?}",
        workload.name(),
        report.failures
    );
    report
}

/// Just enough JSON for `BENCHMARK.json`: objects, arrays, strings without
/// escapes, numbers and literals.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Literal(String),
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.text.get(self.at),
            Some(&byte),
            "expected {:?} at byte {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        self.text[self.at]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.at;
        while self.text[self.at] != b'"' {
            assert_ne!(self.text[self.at], b'\\', "escapes are not expected");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.text[start..self.at - 1].to_vec()).expect("UTF-8")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                while self.peek() != b'}' {
                    let key = self.string();
                    self.eat(b':');
                    assert!(map.insert(key, self.value()).is_none(), "duplicate key");
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Object(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Array(items)
            }
            b'"' => Json::String(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.text.len() && !b",}] \n\t\r".contains(&self.text[self.at]) {
                    self.at += 1;
                }
                let token = std::str::from_utf8(&self.text[start..self.at]).expect("UTF-8");
                token
                    .parse::<f64>()
                    .map_or_else(|_| Json::Literal(token.to_string()), Json::Number)
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut parser = Parser {
        text: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_ws();
    assert_eq!(parser.at, text.len(), "trailing text after the JSON value");
    value
}

fn object(value: &Json) -> &BTreeMap<String, Json> {
    match value {
        Json::Object(map) => map,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn array(value: &Json) -> &[Json] {
    match value {
        Json::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn string(value: &Json) -> &str {
    match value {
        Json::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn benchmark_json() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    object(&parse(&text)).clone()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        let listed: Vec<(String, String, String)> = array(&json[key])
            .iter()
            .map(|m| {
                let m = object(m);
                (
                    string(&m["name"]).to_string(),
                    string(&m["unit"]).to_string(),
                    string(&m["better"]).to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = METRICS
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(listed, ours, "{key} differs from the catalogue");
    }
    for def in METRICS {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert!(
            !def.unit.is_empty()
                && def.unit.len() <= 16
                && def
                    .unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "bad unit {} of {}",
            def.unit,
            def.name
        );
        assert!(matches!(def.better, "higher" | "lower"));
    }
    let workloads: Vec<&str> = array(&json["workloads"])
        .iter()
        .map(|w| string(&object(w)["name"]))
        .collect();
    let ours: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for name in COUNT_METRICS.iter().chain(BUSY_METRICS) {
        assert!(
            METRICS.iter().any(|d| d.name == *name),
            "{name} is not in the catalogue"
        );
    }
}

#[test]
fn one_seed_repeats_every_count_and_quality_metric() {
    for workload in WorkloadName::ALL {
        let first = small_run(workload, 7, false);
        let second = small_run(workload, 7, false);
        for name in COUNT_METRICS {
            assert_eq!(
                first.get(name).to_bits(),
                second.get(name).to_bits(),
                "{} {name}: {} then {}",
                workload.name(),
                first.get(name),
                second.get(name)
            );
        }
        assert!(first.get("nodes_read_per_query") > 0.0);
    }
}

#[test]
fn layer_busy_times_fit_in_the_traced_wall() {
    for workload in WorkloadName::ALL {
        let report = small_run(workload, 3, true);
        let busy: f64 = BUSY_METRICS.iter().map(|name| report.get(name)).sum();
        assert!(report.traced_episode_s > 0.0);
        assert!(
            busy <= report.traced_episode_s,
            "{}: layers busy {busy} s in a {} s episode",
            workload.name(),
            report.traced_episode_s
        );
        assert!(busy > 0.0, "{}: no layer was busy", workload.name());
    }
}

#[test]
fn json_result_holds_exactly_the_metrics_of_its_kind() {
    let report = small_run(WorkloadName::ClusTreeVarying, 1, false);
    for kind in [Kind::EndToEnd, Kind::PerLayer] {
        let result = parse(&report.to_json(kind));
        let result = object(&result);
        assert_eq!(
            result.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(result["correct"], Json::Literal("true".into()));
        let metrics = object(&result["metrics"]);
        let expected: Vec<&str> = METRICS
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.name)
            .collect();
        assert_eq!(metrics.len(), expected.len());
        for name in expected {
            let entry = object(&metrics[name]);
            assert!(matches!(entry["value"], Json::Number(v) if v.is_finite()));
        }
    }
}
