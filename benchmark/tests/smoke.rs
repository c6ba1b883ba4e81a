//! Runs every workload, traced and untraced, at 1/16 scale through the real
//! binary and holds what it prints against `BENCHMARK.json`: every declared
//! name emitted exactly once with its declared unit, nothing undeclared.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Just enough JSON for the two documents this test reads. Objects keep their
/// keys in order and keep duplicates, so "emitted exactly once" is checkable.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = Self::value(bytes, &mut at);
        Self::skip(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing text after the JSON document");
        value
    }

    fn skip(bytes: &[u8], at: &mut usize) {
        while *at < bytes.len() && bytes[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn expect(bytes: &[u8], at: &mut usize, byte: u8) {
        Self::skip(bytes, at);
        assert_eq!(
            bytes.get(*at),
            Some(&byte),
            "expected {:?} at byte {at}",
            byte as char
        );
        *at += 1;
    }

    fn value(bytes: &[u8], at: &mut usize) -> Json {
        Self::skip(bytes, at);
        match bytes[*at] {
            b'{' => {
                *at += 1;
                let mut members = Vec::new();
                Self::skip(bytes, at);
                if bytes[*at] == b'}' {
                    *at += 1;
                    return Json::Object(members);
                }
                loop {
                    Self::skip(bytes, at);
                    let Json::Text(key) = Self::value(bytes, at) else {
                        panic!("object key at byte {at} is not a string");
                    };
                    Self::expect(bytes, at, b':');
                    members.push((key, Self::value(bytes, at)));
                    Self::skip(bytes, at);
                    *at += 1;
                    match bytes[*at - 1] {
                        b',' => continue,
                        b'}' => return Json::Object(members),
                        other => panic!("unexpected {:?} in object", other as char),
                    }
                }
            }
            b'[' => {
                *at += 1;
                let mut items = Vec::new();
                Self::skip(bytes, at);
                if bytes[*at] == b']' {
                    *at += 1;
                    return Json::Array(items);
                }
                loop {
                    items.push(Self::value(bytes, at));
                    Self::skip(bytes, at);
                    *at += 1;
                    match bytes[*at - 1] {
                        b',' => continue,
                        b']' => return Json::Array(items),
                        other => panic!("unexpected {:?} in array", other as char),
                    }
                }
            }
            b'"' => {
                *at += 1;
                let start = *at;
                while bytes[*at] != b'"' {
                    assert_ne!(bytes[*at], b'\\', "escapes are not used in these documents");
                    *at += 1;
                }
                *at += 1;
                Json::Text(String::from_utf8(bytes[start..*at - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if bytes[*at..].starts_with(word.as_bytes()) {
                        *at += word.len();
                        return value;
                    }
                }
                panic!("unknown literal at byte {at}");
            }
            _ => {
                let start = *at;
                while *at < bytes.len()
                    && matches!(bytes[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *at += 1;
                }
                let text = std::str::from_utf8(&bytes[start..*at]).unwrap();
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        let Json::Object(members) = self else {
            panic!("{key}: not an object");
        };
        let mut found = members.iter().filter(|(k, _)| k == key);
        let value = &found
            .next()
            .unwrap_or_else(|| panic!("missing key {key}"))
            .1;
        assert!(found.next().is_none(), "key {key} appears twice");
        value
    }

    fn items(&self) -> &[Json] {
        let Json::Array(items) = self else {
            panic!("not an array: {self:?}");
        };
        items
    }

    fn text(&self) -> &str {
        let Json::Text(text) = self else {
            panic!("not a string: {self:?}");
        };
        text
    }
}

fn declared(benchmark: &Json, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .items()
        .iter()
        .map(|metric| {
            (
                metric.get("name").text().to_owned(),
                metric.get("unit").text().to_owned(),
            )
        })
        .collect()
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_declares() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = Json::parse(
        &std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root"),
    );
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .items()
        .iter()
        .map(|workload| workload.get("name").text())
        .collect();
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        for (what, text) in [("name", name), ("unit", unit)] {
            assert!(
                !text.is_empty()
                    && text
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-/%".contains(&b)),
                "{what} {text:?} has a character outside [A-Za-z0-9_.-] (units: also / and %)"
            );
        }
        assert!(
            name.bytes().all(|b| b != b'/' && b != b'%'),
            "metric name {name:?} must match [A-Za-z0-9_.-]+"
        );
    }

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_bss-benchmark"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let elapsed = started.elapsed();
    assert!(
        output.status.success(),
        "smoke run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "the smoke run took {elapsed:?}, the budget is 20 s"
    );

    let document = Json::parse(&std::fs::read_to_string(&out).unwrap());
    let runs = document.items();
    assert_eq!(
        runs.len(),
        workloads.len() * 2,
        "one traced and one untraced run each"
    );
    for (index, run) in runs.iter().enumerate() {
        let expected = if index % 2 == 0 {
            &end_to_end
        } else {
            &per_layer
        };
        assert_eq!(run.get("workload").text(), workloads[index / 2]);
        let result = run.get("result");
        assert_eq!(result.get("correct"), &Json::Bool(true));
        let Json::Number(attempted) = result.get("attempted") else {
            panic!("attempted is not a number");
        };
        assert!(*attempted >= 1.0);
        let Json::Object(emitted) = result.get("metrics") else {
            panic!("metrics is not an object");
        };
        // Same names, same order, no duplicates, nothing undeclared.
        let names: Vec<&str> = emitted.iter().map(|(name, _)| name.as_str()).collect();
        let declared_names: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, declared_names, "run {index}");
        for ((name, metric), (_, unit)) in emitted.iter().zip(expected) {
            assert_eq!(metric.get("unit").text(), unit, "{name}");
            let Json::Number(value) = metric.get("value") else {
                panic!("{name} has no numeric value");
            };
            assert!(value.is_finite(), "{name} = {value}");
        }
    }

    // The last line a single run prints is the result object on its own.
    let last = Command::new(env!("CARGO_BIN_EXE_bss-benchmark"))
        .args([
            "--smoke",
            "--workload",
            "fig3_newscast",
            "--seed",
            "7",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(last.stdout).unwrap();
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    let Json::Object(members) = &result else {
        panic!("the result line is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bss-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
