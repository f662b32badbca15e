//! End-to-end and per-layer benchmark of the CRP workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path crpbench/Cargo.toml -- \
//!     --workload <rank_sweep|campaign|serve_online> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload untraced and then traced, checks that
//! both produce identical outputs, and reports the per-layer ledger.
//! The last line of standard output is one JSON object; the lines
//! before it print every metric with its unit and sample count.

mod stats;
mod trace;
mod workloads;

use stats::{median, Latencies};
use std::path::Path;
use std::process::ExitCode;
use trace::{Layer, Tracer};
use workloads::{Outcome, RunCfg, Workload};

const USAGE: &str = "usage: crpbench --workload <rank_sweep|campaign|serve_online> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
    tiny: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1 to 600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// How many times set-up runs in an untraced run; set-up time is the
/// median of their fastest tenth. Short set-ups repeat more often.
fn setups(w: Workload, tiny: bool) -> usize {
    match (tiny, w) {
        (true, _) => 2,
        (false, Workload::Campaign) => 20,
        (false, Workload::RankSweep) => 4,
        (false, Workload::ServeOnline) => 3,
    }
}

/// One reported figure.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// The samples behind the figure, where it is a statistic.
    samples: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples: String::new(),
    }
}

/// A latency quantile in `unit` (`scale` ns each) over the fastest
/// blocks.
fn quantile(
    name: &str,
    lat: &Latencies,
    p: f64,
    (scale, unit): (f64, &'static str),
    fails: &mut Vec<String>,
) -> Metric {
    let value = lat.percentile(p).map_or_else(
        || {
            fails.push(format!("{name}: no samples"));
            f64::NAN
        },
        |ns| ns / scale,
    );
    Metric {
        samples: format!("n={} of {}", lat.selected(p), lat.count()),
        ..metric(name, value, unit)
    }
}

const MS: (f64, &str) = (1e6, "ms");
const US: (f64, &str) = (1e3, "us");

/// The end-to-end metrics of an untraced run of `w`.
fn end_to_end(w: Workload, o: &Outcome, peak_rss_mb: f64, fails: &mut Vec<String>) -> Vec<Metric> {
    let setup_s: Vec<f64> = o.setup_ns.iter().map(|ns| *ns as f64 / 1e9).collect();
    let fast: Vec<f64> = stats::fastest(&setup_s, |s| *s, |_| 1, 1)
        .into_iter()
        .copied()
        .collect();
    vec![
        Metric {
            samples: format!("fastest {} of {} set-ups", fast.len(), setup_s.len()),
            ..metric("setup_s", median(&fast), "s")
        },
        Metric {
            samples: format!("fastest tenth (1000+ ops) of {} rounds", o.rounds.len()),
            ..metric("ops_per_s", stats::rate(&o.rounds), "ops/s")
        },
        quantile("op_p50_us", &o.op_latency(w), 0.50, US, fails),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Figures printed for reading but not gated: query, probe and write-batch
/// latency wherever the workload times them (the gated `op_*` figures are
/// one of these), the deterministic output metrics (which vary more
/// between seeds than any bound allows) and the host calibration.
fn diagnostics(o: &Outcome, host_ref_ms: f64, fails: &mut Vec<String>) -> Vec<Metric> {
    let mut out = Vec::new();
    for (kind, lat, unit) in [
        ("query", &o.queries, MS),
        ("probe", &o.probes, US),
        ("ingest", &o.ingest, US),
    ] {
        if lat.count() == 0 {
            continue;
        }
        for (label, p) in [("p50", 0.50), ("p99", 0.99)] {
            out.push(quantile(
                &format!("{kind}_{label}_{}", unit.1),
                lat,
                p,
                unit,
                fails,
            ));
        }
    }
    let c = &o.counts;
    out.extend([
        Metric {
            samples: format!("n={}", c.scored),
            ..metric("top1_mean_rank", c.top1_mean_rank(), "rank")
        },
        Metric {
            samples: format!("n={}", c.attempted()),
            ..metric("error_rate", c.error_rate(), "fraction")
        },
        metric("host.ref_ms", host_ref_ms, "ms"),
    ]);
    out
}

fn frac(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The per-layer ledger of a traced run, with the untraced run's timed
/// phase for the tracing overhead and the unit operation's tail latency.
/// That tail is reported here, ungated: a shared host's contention moves
/// it by more between runs of the same code than any bound allows.
fn per_layer(
    w: Workload,
    traced: &Outcome,
    tr: &Tracer,
    untraced: &Outcome,
    host_ref_ms: f64,
    fails: &mut Vec<String>,
) -> Vec<Metric> {
    let l = tr.ledger();
    let c = &traced.counts;
    let cdn = &traced.cdn;
    let count = |name, v: u64| metric(name, v as f64, "count");
    vec![
        metric("scenario.build_ms", l.self_ms(Layer::ScenarioBuild), "ms"),
        count("probe.calls", c.probes),
        metric("probe.busy_ms", l.self_ms(Layer::Probe), "ms"),
        metric(
            "probe.empty_frac",
            frac(c.empty_probes, c.probes),
            "fraction",
        ),
        count("dns.upstream_queries", c.dns_upstream),
        count("cdn.answers", cdn.queries_answered),
        metric(
            "cdn.fallback_frac",
            frac(cdn.fallback_answers, cdn.queries_answered),
            "fraction",
        ),
        metric(
            "cdn.scattered_frac",
            frac(cdn.scattered_answers, cdn.queries_answered),
            "fraction",
        ),
        count("cdn.remap_events", cdn.remap_events),
        count("core.record.calls", c.records),
        metric("core.record.busy_ms", l.self_ms(Layer::Record), "ms"),
        count("core.prune.calls", c.prunes),
        metric("core.prune.busy_ms", l.self_ms(Layer::Prune), "ms"),
        count("core.ratio_map.builds", c.ratio_map_builds),
        metric("core.ratio_map.busy_ms", l.self_ms(Layer::RatioMap), "ms"),
        metric(
            "core.ratio_map.builds_per_query",
            frac(c.ratio_map_builds, l.calls(Layer::Query)),
            "builds/query",
        ),
        metric(
            "core.ratio_map.mean_len",
            frac(c.ratio_map_entries, c.ratio_map_builds),
            "entries",
        ),
        count("core.rank.calls", l.calls(Layer::Rank)),
        metric("core.rank.busy_ms", l.self_ms(Layer::Rank), "ms"),
        metric(
            "core.rank.signal_frac",
            frac(c.ranked_signal, c.ranked),
            "fraction",
        ),
        metric("core.query.self_ms", l.self_ms(Layer::Query), "ms"),
        count("netsim.rtt_calls", c.rtt_calls),
        metric("netsim.rtt_busy_ms", l.self_ms(Layer::Rtt), "ms"),
        metric("eval.score.busy_ms", l.self_ms(Layer::Score), "ms"),
        metric(
            "trace.overhead_frac",
            stats::rate(&untraced.rounds) / stats::rate(&traced.rounds) - 1.0,
            "fraction",
        ),
        metric("trace.unattributed_frac", l.unattributed_frac(), "fraction"),
        metric("host.ref_ms", host_ref_ms, "ms"),
        metric("top1_mean_rank", c.top1_mean_rank(), "rank"),
        metric("error_rate", c.error_rate(), "fraction"),
        quantile("op_p99_us", &untraced.op_latency(w), 0.99, US, fails),
    ]
}

/// Outputs that must be identical between an untraced and a traced run
/// of one seed.
fn compare(untraced: &Outcome, traced: &Outcome, fails: &mut Vec<String>) {
    let (a, b) = (&untraced.counts, &traced.counts);
    let mut differ = |what: &str, same: bool| {
        if !same {
            fails.push(format!("untraced and traced runs differ in {what}"));
        }
    };
    differ(
        "top1_mean_rank",
        a.top1_mean_rank().to_bits() == b.top1_mean_rank().to_bits(),
    );
    differ(
        "error_rate",
        a.error_rate().to_bits() == b.error_rate().to_bits(),
    );
    differ(
        "cdn counts",
        format!("{:?}", untraced.cdn) == format!("{:?}", traced.cdn),
    );
    differ("dns upstream queries", a.dns_upstream == b.dns_upstream);
    differ(
        "probe and query counts",
        (a.probes, a.queries) == (b.probes, b.queries),
    );
    if let Some(i) = (0..untraced.digests.len().max(traced.digests.len()))
        .find(|&i| untraced.digests.get(i) != traced.digests.get(i))
    {
        fails.push(format!(
            "query {i}: ratio_map + Ranking::rank ranks differently from closest()"
        ));
    }
}

/// A fixed CPU kernel unrelated to the program: the median of five
/// runs of generating and sorting 200k xorshift values, in ms. A slow
/// host spell moves it; a program change does not.
fn host_ref_ms() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut v: Vec<u64> = (0..200_000)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect();
            v.sort_unstable();
            std::hint::black_box(&v);
            stats::since(t0) as f64 / 1e6
        })
        .collect();
    median(&runs)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<34} {:>16.6} {:<12} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_ref = host_ref_ms();
    let w = args.workload;
    let mut cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        setups: setups(w, args.tiny),
        tiny: args.tiny,
    };
    println!(
        "crpbench {} seed={} seconds={} trace={} ops_per_s counts {}",
        w.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        w.op()
    );
    let mut fails = Vec::new();
    let (reported, metrics) = if args.trace {
        cfg.setups = 1;
        let untraced = workloads::run(w, &cfg, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        let traced = workloads::run(w, &cfg, &mut tr);
        compare(&untraced, &traced, &mut fails);
        fails.extend(untraced.failures.iter().cloned());
        let spans = Path::new(".crpbench").join(format!("{}.spans.csv", w.name()));
        if let Err(e) = tr.write_csv(&spans) {
            fails.push(format!("writing {}: {e}", spans.display()));
        }
        let metrics = per_layer(w, &traced, &tr, &untraced, host_ref, &mut fails);
        println!("spans written to {}", spans.display());
        (traced, metrics)
    } else {
        let untraced = workloads::run(w, &cfg, &mut Tracer::new(false));
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            fails.push(e);
            f64::NAN
        });
        let metrics = end_to_end(w, &untraced, rss, &mut fails);
        print_metrics(
            "diagnostics (not gated):",
            &diagnostics(&untraced, host_ref, &mut fails),
        );
        (untraced, metrics)
    };
    fails.extend(reported.failures.iter().cloned());
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        fails.push(format!("{} is not a finite number", m.name));
    }
    print_metrics(
        if args.trace {
            "per-layer:"
        } else {
            "end-to-end:"
        },
        &metrics,
    );
    for f in &fails {
        eprintln!("crpbench: check failed: {f}");
    }
    let c = &reported.counts;
    println!(
        "{}",
        json_line(fails.is_empty(), c.attempted(), c.failed(), &metrics)
    );
    if fails.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload campaign --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Campaign);
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (7, 10, true, false));
    }

    #[test]
    fn rejects_bad_flags_with_a_message() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload campaign --seed x --seconds 1 --trace 0",
            "--workload campaign --seed 1 --seconds 0 --trace 0",
            "--workload campaign --seed 1 --seconds 1 --trace 2",
            "--workload campaign --seed 1 --seconds 1",
            "--workload campaign --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(true, 3, 0, &[metric("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
