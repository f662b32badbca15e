//! The three workloads: closed loop, one caller, one thread.
//!
//! Each workload builds its world from the seed and runs a timed phase
//! of equal rounds whose number is fixed by `--seconds`, so an untraced
//! and a traced run of one seed do identical work. Set-up runs several
//! times, split before and after the timed phase so that set-up time
//! samples two moments of the run; only the world set up last before the
//! timed phase is kept and counted.

use crate::stats::{since, Latencies};
use crate::trace::{Layer, Tracer};
use crp::{CdnProbe, Scenario, ScenarioConfig};
use crp_cdn::{CdnStats, ReplicaId};
use crp_core::{
    CrpService, ObservationSource, Ranking, RatioMap, RatioMapError, SimilarityMetric, WindowPolicy,
};
use crp_netsim::{HostId, SimDuration, SimTime};
use std::borrow::Cow;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8/9 evaluation: many scored queries over one campaign.
    RankSweep,
    /// Observation ingest: every host probes the CDN each tick.
    Campaign,
    /// Writes beside reads, one tick at a time.
    ServeOnline,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::RankSweep,
        Workload::Campaign,
        Workload::ServeOnline,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RankSweep => "rank_sweep",
            Workload::Campaign => "campaign",
            Workload::ServeOnline => "serve_online",
        }
    }

    /// What `ops_per_s` counts and what `op_p50_us`/`op_p99_us` time.
    pub fn op(self) -> &'static str {
        match self {
            Workload::RankSweep => {
                "scored queries; op = one client's closest() under all four windows at one instant"
            }
            Workload::Campaign => "probes; op = one CdnProbe::observe",
            Workload::ServeOnline => "queries incl. ingest; op = one closest()",
        }
    }

    /// Timed-phase rounds per requested second: a round is 20-45 ms of
    /// work on a 2-vCPU 2 GHz Xeon VM. Short rounds let the fastest ones
    /// fall inside a host's fast spells.
    fn rounds_per_second(self) -> usize {
        match self {
            Workload::RankSweep => 20,
            Workload::Campaign => 24,
            Workload::ServeOnline => 36,
        }
    }
}

/// Settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// World and input seed.
    pub seed: u64,
    /// Requested measuring time; sets the (fixed) amount of timed work.
    pub seconds: usize,
    /// How many times set-up runs; the last world is timed.
    pub setups: usize,
    /// A small world for the benchmark's own tests.
    pub tiny: bool,
}

/// Operation counts; all are deterministic per seed and round count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub probes: u64,
    pub empty_probes: u64,
    pub dns_upstream: u64,
    pub records: u64,
    pub prunes: u64,
    pub queries: u64,
    pub query_errors: u64,
    pub no_signal: u64,
    pub ranked: u64,
    pub ranked_signal: u64,
    pub ratio_map_builds: u64,
    pub ratio_map_entries: u64,
    pub rtt_calls: u64,
    pub scored: u64,
    pub rank_sum: u64,
}

impl Counts {
    /// Mean rank of the Top-1 pick in the RTT order (0 = optimal).
    pub fn top1_mean_rank(&self) -> f64 {
        self.rank_sum as f64 / self.scored.max(1) as f64
    }

    /// Operations attempted: probes and queries.
    pub fn attempted(&self) -> u64 {
        self.probes + self.queries
    }

    /// Hard failures: a query that returned `Err` or a probe with no answer.
    pub fn failed(&self) -> u64 {
        self.query_errors + self.empty_probes
    }

    /// Failed operations plus rankings without signal, over attempts.
    pub fn error_rate(&self) -> f64 {
        (self.failed() + self.no_signal) as f64 / self.attempted().max(1) as f64
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of each set-up.
    pub setup_ns: Vec<u64>,
    /// `(operations, wall ns)` per round of the timed phase.
    pub rounds: Vec<(u64, u64)>,
    pub queries: Latencies,
    pub probes: Latencies,
    pub ingest: Latencies,
    pub counts: Counts,
    pub cdn: CdnStats,
    /// One digest per query's ranking, in issue order.
    pub digests: Vec<u64>,
    /// Correctness failures (empty on a good run).
    pub failures: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            setup_ns: Vec::new(),
            rounds: Vec::new(),
            queries: Latencies::default(),
            probes: Latencies::default(),
            ingest: Latencies::default(),
            counts: Counts::default(),
            cdn: CdnStats::default(),
            digests: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Latencies of the workload's unit operation (see [`Workload::op`]).
    /// rank_sweep's op is Fig. 9's comparison of the four windows for one
    /// client at one instant. A single query would not do: on a 2-vCPU
    /// 2 GHz Xeon VM the windows' queries take about 0.65, 0.8, 1.4 and
    /// 7.5 ms, with no overlap, so the median of a quarter of each is the
    /// slowest `LastProbes(10)` query, an extreme that moves run to run.
    pub fn op_latency(&self, w: Workload) -> Cow<'_, Latencies> {
        match w {
            Workload::RankSweep => Cow::Owned(self.queries.grouped(SWEEP_WINDOWS.len())),
            Workload::Campaign => Cow::Borrowed(&self.probes),
            Workload::ServeOnline => Cow::Borrowed(&self.queries),
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }
}

/// Runs `workload` once.
pub fn run(workload: Workload, cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    match workload {
        Workload::RankSweep => rank_sweep(cfg, tr),
        Workload::Campaign => campaign(cfg, tr),
        Workload::ServeOnline => serve_online(cfg, tr),
    }
}

/// The world of a run: the full-size CDN with `candidates` and
/// `clients`, or a tiny world for the benchmark's own tests.
fn world(cfg: &RunCfg, candidates: usize, clients: usize) -> ScenarioConfig {
    let (candidate_servers, clients, cdn_scale) = if cfg.tiny {
        (12, 6, 0.3)
    } else {
        (candidates, clients, 1.0)
    };
    ScenarioConfig {
        seed: cfg.seed,
        candidate_servers,
        clients,
        cdn_scale,
        ..ScenarioConfig::default()
    }
}

fn tick(i: u64) -> SimTime {
    SimTime::from_mins(i * 10)
}

fn build(world: &ScenarioConfig, tr: &mut Tracer) -> Scenario {
    let span = tr.begin(Layer::ScenarioBuild);
    let scenario = Scenario::build(world.clone());
    tr.end(span);
    scenario
}

fn hosts(s: &Scenario) -> Vec<HostId> {
    s.candidates().iter().chain(s.clients()).copied().collect()
}

fn new_probe(s: &Scenario, host: HostId) -> CdnProbe<'_> {
    CdnProbe::new(s.cdn(), host, s.names().to_vec())
}

/// One `CdnProbe::observe`, checked, and timed into `out.probes` when
/// `timed` (in a timed phase).
fn observe(
    tr: &mut Tracer,
    s: &Scenario,
    probe: &mut CdnProbe<'_>,
    t: SimTime,
    timed: bool,
    out: &mut Outcome,
) -> Option<Vec<ReplicaId>> {
    let span = tr.begin(Layer::Probe);
    let t0 = Instant::now();
    let obs = probe.observe(t);
    let ns = since(t0);
    tr.end(span);
    if timed {
        out.probes.push(ns);
    }
    out.counts.probes += 1;
    match &obs {
        None => out.counts.empty_probes += 1,
        Some(servers) => {
            let fleet = s.cdn().replicas().len();
            if let Some(bad) = servers.iter().find(|r| r.index() >= fleet) {
                out.fail(format!("probe at {t} returned unknown replica {bad:?}"));
            }
        }
    }
    obs
}

/// One tick's write batch: `record` for every observation, then the
/// hourly `prune_stale`. Returns the batch's wall time.
fn ingest(
    tr: &mut Tracer,
    svc: &mut CrpService<HostId, ReplicaId>,
    t: SimTime,
    batch: &mut Vec<(HostId, Vec<ReplicaId>)>,
    retention: SimDuration,
    counts: &mut Counts,
) -> u64 {
    let span = tr.begin(Layer::Ingest);
    let t0 = Instant::now();
    let records = tr.begin(Layer::Record);
    counts.records += batch.len() as u64;
    for (host, servers) in batch.drain(..) {
        svc.record(host, t, servers);
    }
    tr.end(records);
    if t.as_millis()
        .is_multiple_of(SimDuration::from_hours(1).as_millis())
    {
        let prune = tr.begin(Layer::Prune);
        svc.prune_stale(t, retention);
        tr.end(prune);
        counts.prunes += 1;
    }
    let ns = since(t0);
    tr.end(span);
    ns
}

/// A query as its public parts: the client's and every candidate's
/// ratio map, then `Ranking::rank`. Equal to `CrpService::closest`.
fn decomposed(
    tr: &mut Tracer,
    svc: &CrpService<HostId, ReplicaId>,
    client: HostId,
    candidates: &[HostId],
    t: SimTime,
    counts: &mut Counts,
) -> Result<Ranking<HostId>, RatioMapError> {
    let mut build = |host: &HostId| {
        let map = svc.ratio_map(host, t);
        counts.ratio_map_builds += 1;
        if let Ok(m) = &map {
            counts.ratio_map_entries += m.len() as u64;
        }
        map
    };
    let span = tr.begin(Layer::RatioMap);
    let client_map = build(&client);
    tr.end(span);
    let client_map = client_map?;
    let span = tr.begin(Layer::RatioMap);
    let maps: Vec<(HostId, RatioMap<ReplicaId>)> = candidates
        .iter()
        .filter_map(|c| build(c).ok().map(|m| (*c, m)))
        .collect();
    tr.end(span);
    let span = tr.begin(Layer::Rank);
    let ranking = Ranking::rank(&client_map, maps.iter().map(|(n, m)| (*n, m)), svc.metric());
    tr.end(span);
    Ok(ranking)
}

/// One closest-candidate query, timed into `out.queries`. Untraced runs
/// call `CrpService::closest`; traced runs issue its public parts.
/// Returns the Top-1 pick when the ranking has signal.
fn query(
    tr: &mut Tracer,
    svc: &CrpService<HostId, ReplicaId>,
    client: HostId,
    candidates: &[HostId],
    t: SimTime,
    out: &mut Outcome,
) -> Option<HostId> {
    let t0 = Instant::now();
    let result = if tr.enabled() {
        let span = tr.begin(Layer::Query);
        let r = decomposed(tr, svc, client, candidates, t, &mut out.counts);
        tr.end(span);
        r
    } else {
        svc.closest(&client, candidates.to_vec(), t)
    };
    out.queries.push(since(t0));
    out.counts.queries += 1;
    let ranking = match result {
        Ok(r) => r,
        Err(e) => {
            out.counts.query_errors += 1;
            out.digests.push(0);
            out.fail(format!("closest({client}, {t}) failed: {e}"));
            return None;
        }
    };
    check_ranking(&ranking, candidates.len(), out);
    out.digests.push(digest(&ranking));
    out.counts.ranked += ranking.len() as u64;
    out.counts.ranked_signal += ranking.entries().iter().filter(|e| e.1 > 0.0).count() as u64;
    if ranking.has_signal() {
        ranking.top().copied()
    } else {
        out.counts.no_signal += 1;
        None
    }
}

/// Untimed check that the public parts rank exactly as `closest` did.
fn check_decomposition(
    svc: &CrpService<HostId, ReplicaId>,
    client: HostId,
    candidates: &[HostId],
    t: SimTime,
    out: &mut Outcome,
) {
    let expected = out.digests.last().copied();
    let mut scratch = Counts::default();
    let got = decomposed(
        &mut Tracer::new(false),
        svc,
        client,
        candidates,
        t,
        &mut scratch,
    )
    .map(|r| digest(&r))
    .unwrap_or(0);
    if expected != Some(got) {
        out.fail(format!(
            "ratio_map + Ranking::rank disagrees with closest({client}, {t})"
        ));
    }
}

fn check_ranking(r: &Ranking<HostId>, candidates: usize, out: &mut Outcome) {
    let e = r.entries();
    let sorted = e.windows(2).all(|w| w[0].1 >= w[1].1);
    let bounded = e
        .iter()
        .all(|(_, s)| s.is_finite() && *s >= 0.0 && *s <= 1.0 + 1e-9);
    if e.is_empty() || e.len() > candidates || !sorted || !bounded {
        out.fail(format!(
            "malformed ranking: {} entries of {candidates} candidates, sorted={sorted}, scores in [0,1]={bounded}",
            e.len()
        ));
    }
}

/// FNV-1a over every `(candidate, score bits)` entry, best first.
fn digest(r: &Ranking<HostId>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (n, s) in r.entries() {
        for b in (n.index() as u64)
            .to_le_bytes()
            .into_iter()
            .chain(s.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Rank of `pick` among the candidates ordered by instantaneous RTT to
/// `client` (ties by id), as `crp_eval::closest::average_ranks` scores.
fn score(
    tr: &mut Tracer,
    s: &Scenario,
    client: HostId,
    pick: HostId,
    t: SimTime,
    order: &mut Vec<(HostId, f64)>,
    out: &mut Outcome,
) {
    let span = tr.begin(Layer::Score);
    let net = s.network();
    let rtt = tr.begin(Layer::Rtt);
    order.clear();
    order.extend(
        s.candidates()
            .iter()
            .map(|&c| (c, net.rtt(client, c, t).millis())),
    );
    tr.end(rtt);
    order.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let rank = order.iter().position(|(c, _)| *c == pick);
    tr.end(span);
    out.counts.rtt_calls += s.candidates().len() as u64;
    match rank {
        Some(rank) => {
            out.counts.scored += 1;
            out.counts.rank_sum += rank as u64;
        }
        None => out.fail(format!("pick {pick} for {client} is not a candidate")),
    }
}

// ------------------------------------------------------------------- set-up

/// Runs `setup` for the world the timed phase uses, after the spare
/// set-ups that precede it; every set-up's wall time is recorded.
fn set_up_before<W>(
    cfg: &RunCfg,
    tr: &mut Tracer,
    out: &mut Outcome,
    setup: &impl Fn(&mut Tracer, &mut Outcome) -> W,
) -> W {
    spare_set_ups(cfg.setups.div_ceil(2) - 1, out, setup);
    let t0 = Instant::now();
    let world = setup(tr, out);
    out.setup_ns.push(since(t0));
    world
}

/// Runs the set-ups that follow the timed phase (after its world is
/// dropped, so memory does not double).
fn set_up_after<W>(
    cfg: &RunCfg,
    out: &mut Outcome,
    setup: &impl Fn(&mut Tracer, &mut Outcome) -> W,
) {
    spare_set_ups(cfg.setups - cfg.setups.div_ceil(2), out, setup);
}

/// Set-ups measured for their time only: untraced, and counted apart.
fn spare_set_ups<W>(n: usize, out: &mut Outcome, setup: &impl Fn(&mut Tracer, &mut Outcome) -> W) {
    for _ in 0..n {
        let t0 = Instant::now();
        drop(setup(&mut Tracer::new(false), &mut Outcome::new()));
        out.setup_ns.push(since(t0));
    }
}

/// Fails the run when CRP's picks are not clearly better than chance: a
/// random pick's expected rank is half the candidate count.
fn check_quality(out: &mut Outcome, candidates: usize) {
    let chance = (candidates as f64 - 1.0) / 2.0;
    if out.counts.scored > 0 && out.counts.top1_mean_rank() >= chance / 2.0 {
        out.fail(format!(
            "top1_mean_rank {} is not far below a random pick's {chance}",
            out.counts.top1_mean_rank()
        ));
    }
}

// ---------------------------------------------------------------- rank_sweep

/// Fig. 9's four windows.
const SWEEP_WINDOWS: [WindowPolicy; 4] = [
    WindowPolicy::All,
    WindowPolicy::LastProbes(30),
    WindowPolicy::LastProbes(10),
    WindowPolicy::LastProbes(5),
];
/// Fig. 9's campaign length in hours (`fig9_window_size`'s default).
const SWEEP_HOURS: u64 = 48;
/// Fig. 9's eval instants: every 4 h over the campaign's last 12 h.
const SWEEP_INSTANTS: [u64; 4] = [
    SWEEP_HOURS - 12,
    SWEEP_HOURS - 8,
    SWEEP_HOURS - 4,
    SWEEP_HOURS,
];
/// Untraced runs re-check every this many queries against the public parts.
const CHECK_EVERY: u64 = 64;

/// Set-up: the world plus a host-major 48-h, 10-min campaign (as
/// `Scenario::observe_all` runs it for Fig. 9), re-read under each window.
/// Timed: each round takes the next client in turn and runs `closest` for
/// it at every eval instant under every window, scoring each pick against
/// the RTT order. Rounds differ only in their client, whose own map is 1
/// of the 241 a query builds, so they do equal work; hundreds of queries
/// share each instant, as in Fig. 9.
fn rank_sweep(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let world = world(cfg, 240, 200);
    let rounds = cfg.seconds * Workload::RankSweep.rounds_per_second();
    let instants = SWEEP_INSTANTS.map(SimTime::from_hours);
    let last_tick = SWEEP_HOURS * 6; // six 10-min ticks an hour
    let setup = |tr: &mut Tracer, out: &mut Outcome| {
        let s = build(&world, tr);
        let mut base = CrpService::new(WindowPolicy::All, SimilarityMetric::Cosine);
        let mut history = Vec::new();
        for host in hosts(&s) {
            let mut probe = new_probe(&s, host);
            for i in 0..=last_tick {
                let t = tick(i);
                if let Some(servers) = observe(tr, &s, &mut probe, t, false, out) {
                    history.push((t, servers));
                }
            }
            out.counts.dns_upstream += probe.queries_issued();
            let span = tr.begin(Layer::Record);
            out.counts.records += history.len() as u64;
            for (t, servers) in history.drain(..) {
                base.record(host, t, servers);
            }
            tr.end(span);
        }
        let services: Vec<_> = SWEEP_WINDOWS
            .iter()
            .map(|w| base.clone().with_window(*w))
            .collect();
        (s, services)
    };
    let mut out = Outcome::new();
    let (s, services) = set_up_before(cfg, tr, &mut out, &setup);

    let candidates = s.candidates().to_vec();
    let clients = s.clients();
    let mut order = Vec::with_capacity(candidates.len());
    tr.phase_begin();
    for round in 0..rounds {
        let client = clients[round % clients.len()];
        out.queries.new_block();
        let mut ops = 0;
        let mut excluded = 0;
        let t0 = Instant::now();
        // One instant's four windows run back to back: `op_latency` sums them.
        for &t in &instants {
            for svc in &services {
                if let Some(pick) = query(tr, svc, client, &candidates, t, &mut out) {
                    score(tr, &s, client, pick, t, &mut order, &mut out);
                }
                ops += 1;
                if !tr.enabled() && out.counts.queries % CHECK_EVERY == 1 {
                    let c0 = Instant::now();
                    check_decomposition(svc, client, &candidates, t, &mut out);
                    excluded += since(c0);
                }
            }
        }
        out.rounds.push((ops, since(t0) - excluded));
    }
    tr.phase_end();
    out.cdn = s.cdn().stats();
    check_quality(&mut out, candidates.len());
    drop((s, services));
    set_up_after(cfg, &mut out, &setup);
    out
}

// ------------------------------------------------------------------ campaign

/// Ticks per round of the campaign's timed phase: one hour, so every
/// round prunes once.
const CAMPAIGN_TICKS_PER_ROUND: u64 = 6;
/// The last ticks at which every client queries after the timed phase.
const CAMPAIGN_CHECK_TICKS: u64 = 10;
const CAMPAIGN_WINDOW: WindowPolicy = WindowPolicy::LastProbes(30);
const CAMPAIGN_RETENTION: SimDuration = SimDuration::from_hours(6);

/// Set-up: the world plus one warm probe per host (recorded), so the
/// CDN's memoized shortlists exist. Timed: every host probes each
/// 10-min tick and the batch is recorded (`LastProbes(30)`, hourly
/// prune). Afterwards every client queries at each of the last ticks
/// and the picks are scored, which checks the ingested state.
fn campaign(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let world = world(cfg, 240, 100);
    let setup = |tr: &mut Tracer, out: &mut Outcome| {
        let s = build(&world, tr);
        let mut svc = CrpService::new(CAMPAIGN_WINDOW, SimilarityMetric::Cosine);
        let mut batch = Vec::new();
        for host in hosts(&s) {
            let mut probe = new_probe(&s, host);
            if let Some(servers) = observe(tr, &s, &mut probe, tick(0), false, out) {
                batch.push((host, servers));
            }
            out.counts.dns_upstream += probe.queries_issued();
        }
        ingest(
            tr,
            &mut svc,
            tick(0),
            &mut batch,
            CAMPAIGN_RETENTION,
            &mut out.counts,
        );
        (s, svc)
    };
    let mut out = Outcome::new();
    let (s, mut svc) = set_up_before(cfg, tr, &mut out, &setup);

    let hosts = hosts(&s);
    let mut probes: Vec<CdnProbe<'_>> = hosts.iter().map(|&h| new_probe(&s, h)).collect();
    let mut batch = Vec::with_capacity(hosts.len());
    let mut next_tick = 1;
    tr.phase_begin();
    for _ in 0..cfg.seconds * Workload::Campaign.rounds_per_second() {
        out.probes.new_block();
        out.ingest.new_block();
        let t0 = Instant::now();
        for _ in 0..CAMPAIGN_TICKS_PER_ROUND {
            let t = tick(next_tick);
            next_tick += 1;
            for (probe, &host) in probes.iter_mut().zip(&hosts) {
                if let Some(servers) = observe(tr, &s, probe, t, true, &mut out) {
                    batch.push((host, servers));
                }
            }
            let ns = ingest(
                tr,
                &mut svc,
                t,
                &mut batch,
                CAMPAIGN_RETENTION,
                &mut out.counts,
            );
            out.ingest.push(ns);
        }
        out.rounds
            .push((CAMPAIGN_TICKS_PER_ROUND * hosts.len() as u64, since(t0)));
    }
    tr.phase_end();
    out.counts.dns_upstream += probes.iter().map(CdnProbe::queries_issued).sum::<u64>();
    drop(probes);

    let candidates = s.candidates().to_vec();
    let mut order = Vec::with_capacity(candidates.len());
    out.queries.new_block();
    for i in next_tick - CAMPAIGN_CHECK_TICKS.min(next_tick - 1)..next_tick {
        let t = tick(i);
        for &client in s.clients() {
            if let Some(pick) = query(tr, &svc, client, &candidates, t, &mut out) {
                score(tr, &s, client, pick, t, &mut order, &mut out);
            }
            if !tr.enabled() && out.counts.queries % CHECK_EVERY == 1 {
                check_decomposition(&svc, client, &candidates, t, &mut out);
            }
        }
    }
    out.cdn = s.cdn().stats();
    check_quality(&mut out, candidates.len());
    drop((s, svc));
    set_up_after(cfg, &mut out, &setup);
    out
}

// -------------------------------------------------------------- serve_online

/// Clients that query at each tick, taken in turn from all clients.
/// Fewer than 100, so the first query after each write batch is more than
/// 1% of the queries: when it is slower than the rest, the per-layer
/// `op_p99_us` shows it.
const SERVE_QUERIES_PER_TICK: usize = 60;
/// Bootstrap history recorded in set-up (~100 min).
const SERVE_BOOTSTRAP_TICKS: u64 = 10;
const SERVE_WINDOW: WindowPolicy = WindowPolicy::LastProbes(10);
const SERVE_RETENTION: SimDuration = SimDuration::from_hours(3);

/// Set-up: the world, every host's observation stream for the whole run
/// pre-generated from the CDN, and a ~100-min bootstrap recorded. Timed:
/// each round is one 10-min tick: its write batch, then the next clients
/// in turn query at that tick (`LastProbes(10)`). One round in six also
/// prunes, a small share of its work. Picks are scored after the timed
/// phase.
fn serve_online(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let world = world(cfg, 240, 120);
    let per_tick = if cfg.tiny { 4 } else { SERVE_QUERIES_PER_TICK };
    let rounds = cfg.seconds * Workload::ServeOnline.rounds_per_second();
    let total_ticks = SERVE_BOOTSTRAP_TICKS + rounds as u64;
    let setup = |tr: &mut Tracer, out: &mut Outcome| {
        let s = build(&world, tr);
        let hosts = hosts(&s);
        let mut probes: Vec<CdnProbe<'_>> = hosts.iter().map(|&h| new_probe(&s, h)).collect();
        let mut stream: Vec<Vec<(HostId, Vec<ReplicaId>)>> = Vec::new();
        for i in 0..total_ticks {
            let mut batch = Vec::with_capacity(hosts.len());
            for (probe, &host) in probes.iter_mut().zip(&hosts) {
                if let Some(servers) = observe(tr, &s, probe, tick(i), false, out) {
                    batch.push((host, servers));
                }
            }
            stream.push(batch);
        }
        out.counts.dns_upstream += probes.iter().map(CdnProbe::queries_issued).sum::<u64>();
        drop(probes);
        let mut svc = CrpService::new(SERVE_WINDOW, SimilarityMetric::Cosine);
        for (i, batch) in stream
            .iter_mut()
            .enumerate()
            .take(SERVE_BOOTSTRAP_TICKS as usize)
        {
            ingest(
                tr,
                &mut svc,
                tick(i as u64),
                batch,
                SERVE_RETENTION,
                &mut out.counts,
            );
        }
        (s, svc, stream)
    };
    let mut out = Outcome::new();
    let (s, mut svc, mut stream) = set_up_before(cfg, tr, &mut out, &setup);

    let candidates = s.candidates().to_vec();
    let clients = s.clients();
    let mut picks: Vec<(HostId, SimTime, HostId)> = Vec::new();
    let mut turn = 0;
    tr.phase_begin();
    for i in SERVE_BOOTSTRAP_TICKS..total_ticks {
        out.queries.new_block();
        out.ingest.new_block();
        let mut excluded = 0;
        let t0 = Instant::now();
        let t = tick(i);
        let ns = ingest(
            tr,
            &mut svc,
            t,
            &mut stream[i as usize],
            SERVE_RETENTION,
            &mut out.counts,
        );
        out.ingest.push(ns);
        for _ in 0..per_tick {
            let client = clients[turn % clients.len()];
            turn += 1;
            if let Some(pick) = query(tr, &svc, client, &candidates, t, &mut out) {
                picks.push((client, t, pick));
            }
            if !tr.enabled() && out.counts.queries % CHECK_EVERY == 1 {
                let c0 = Instant::now();
                check_decomposition(&svc, client, &candidates, t, &mut out);
                excluded += since(c0);
            }
        }
        out.rounds.push((per_tick as u64, since(t0) - excluded));
    }
    tr.phase_end();

    let mut order = Vec::with_capacity(candidates.len());
    for (client, t, pick) in picks {
        score(tr, &s, client, pick, t, &mut order, &mut out);
    }
    out.cdn = s.cdn().stats();
    check_quality(&mut out, candidates.len());
    drop((s, svc, stream));
    set_up_after(cfg, &mut out, &setup);
    out
}
