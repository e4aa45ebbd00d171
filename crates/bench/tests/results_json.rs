//! Shape check of the committed bench results: every `results/BENCH_*.json`
//! parses, is an object whose first key `bench` names the benchmark, and is
//! byte for byte what `seeker_obs::json` emits for it, so a hand edit or a
//! second writer shows up here.

use std::fs;
use std::path::Path;

use seeker_obs::json::{self, JsonValue};

#[test]
fn bench_results_are_emitted_by_obs_json() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("results directory")
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "BENCH_candidates.json",
            "BENCH_obs.json",
            "BENCH_par.json",
            "BENCH_scale.json",
            "BENCH_serve.json"
        ]
    );
    for name in &names {
        let text = fs::read_to_string(dir.join(name)).expect("readable results file");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let first = doc.as_object().and_then(|pairs| pairs.first());
        assert!(
            matches!(first, Some((key, JsonValue::String(_))) if key == "bench"),
            "{name}: the first key must be the string `bench`"
        );
        assert_eq!(doc.to_pretty_string(), text, "{name} is not what obs::json emits");
    }
}
