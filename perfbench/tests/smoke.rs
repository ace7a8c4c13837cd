//! Smoke size: every workload and every correctness gate, in seconds.
//! A traced run must also close its self-time budget: no self row,
//! `unattributed_s` included, is negative (overlapping timers would
//! drive `unattributed_s` below 0), and the unattributed rest stays a
//! small share of `wall_s`.

use ga_obs::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "fig2-flow",
    "serve-firehose",
    "batch-analytics",
    "sharded-fleet",
];

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--smoke", "--trace", if trace { "1" } else { "0" }])
        .arg("--workdir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a record")).expect("JSON record")
}

fn number(j: &Json) -> f64 {
    match j {
        Json::Float(v) => *v,
        Json::UInt(v) => *v as f64,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn every_gate_passes_at_smoke_size() {
    for w in WORKLOADS {
        let r = run(w, false);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{w}");
        let gates = r.get("gates").and_then(Json::as_arr).expect("gates");
        assert!(!gates.is_empty(), "{w}: no gates ran");
        let metrics = r.get("metrics").expect("metrics");
        for m in [
            "processing_cpu_s",
            "ingest_cpu_us_per_update",
            "query_cpu_us",
            "peak_rss_mb",
            "setup_s",
            "processing_s",
            "ingest_updates_per_s",
            "ack_p50_ms",
        ] {
            let v = number(metrics.get(m).and_then(|x| x.get("value")).expect(m));
            assert!(v > 0.0, "{w}: {m} = {v}");
        }
    }
}

#[test]
fn traced_self_times_do_not_overlap() {
    for w in WORKLOADS {
        let r = run(w, true);
        let layers = r.get("layers").expect("layers");
        let row = |n: &str| number(layers.get(n).unwrap_or_else(|| panic!("{w}: no {n}")));
        let self_rows = r
            .get("self_rows")
            .and_then(Json::as_arr)
            .expect("self_rows");
        let wall = row("wall_s");
        assert!(wall > 0.0, "{w}");
        let eps = 1e-9 * wall.max(1.0);
        for n in self_rows {
            let Json::Str(n) = n else {
                panic!("{w}: self row name {n:?}")
            };
            assert!(row(n) >= -eps, "{w}: {n} = {}", row(n));
        }
        let rest = row("unattributed_s");
        assert!(
            rest <= 0.25 * wall,
            "{w}: unattributed_s {rest} of wall_s {wall}"
        );
    }
}
