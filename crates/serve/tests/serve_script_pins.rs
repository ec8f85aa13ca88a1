//! One fixed serve script, pinned end to end. Five jobs — INC-hash,
//! DINC-hash and MR-hash, one under UDF poison, one under crash faults —
//! are submitted to one tenant or spread over two, then the server is
//! stepped until it drains. Before the first step and between every pair
//! of steps the client asks every job for a few point lookups, one
//! batched lookup and a progress read. Everything the server answers or
//! writes is folded into CRCs and held to constants: the answers (errors
//! for waiting and finished-elsewhere jobs included), the serving trace,
//! the tenant books, the quarantine file's bytes and every served output.
//!
//! The pins hold at engine threads 1 and 4 alike: how the server runs a
//! wave is free to change, what it answers is not.

use opa_common::{ExecConfig, FaultConfig, Key};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::JobInput;
use opa_serve::{JobSpec, ServeConfig, ServeQuery, Server};
use opa_simio::codec::crc32;
use opa_workloads::clickstream::ClickStreamSpec;
use opa_workloads::{ClickCountJob, FrequentUsersJob, PageFreqJob};
use std::path::PathBuf;
use std::sync::Arc;

/// What one drain of the script produced, each part as a CRC.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    /// Every query answer, in the order asked.
    answers: u32,
    /// Queries asked (the answer CRC's denominator).
    queries: usize,
    /// The serving-layer trace.
    trace: u32,
    /// The tenant books after the drain.
    books: u32,
    /// The bytes of every quarantine file written, in job order.
    opaq: u32,
    /// One CRC per submitted job's output (0 for a job without one).
    outputs: Vec<u32>,
    /// Scheduler rounds to drain.
    rounds: u64,
}

fn spec(framework: Framework, batches: usize, threads: usize, faults: FaultConfig) -> JobSpec {
    JobSpec {
        framework,
        cluster: ClusterSpec::tiny(),
        batches,
        exec: ExecConfig::oversubscribed(threads),
        faults,
        ..JobSpec::default()
    }
}

fn drain(data: &Arc<JobInput>, threads: usize, two_tenants: bool) -> Pins {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "opa-serve-script-pins-{}-t{threads}-{two_tenants}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("dlq dir");
    let mut server = Server::new(ServeConfig {
        slots_per_tenant: 1,
        queue_per_tenant: 4,
        queue_total: 6,
    })
    .dlq_dir(&dir);
    let other = u32::from(two_tenants);
    let click = ClickCountJob {
        expected_users: 2_000,
    };
    let users = FrequentUsersJob {
        threshold: 5,
        expected_users: 2_000,
    };
    let pages = PageFreqJob {
        expected_pages: 4_000,
    };
    let d = || Arc::clone(data);
    let poison = FaultConfig::poison(5, 0.002);
    let crashy = FaultConfig::uniform(3, 0.05);
    let jobs = [
        server.submit(
            0,
            click.clone(),
            d(),
            &spec(Framework::IncHash, 4, threads, poison),
        ),
        server.submit(
            other,
            users,
            d(),
            &spec(Framework::DincHash, 3, threads, crashy),
        ),
        server.submit(
            0,
            click.clone(),
            d(),
            &spec(Framework::DincHash, 5, threads, FaultConfig::disabled()),
        ),
        server.submit(
            other,
            pages,
            d(),
            &spec(Framework::MrHash, 2, threads, FaultConfig::disabled()),
        ),
        server.submit(
            other,
            click,
            d(),
            &spec(Framework::IncHash, 3, threads, FaultConfig::disabled()),
        ),
    ];
    let ids: Vec<u32> = jobs.into_iter().map(|r| r.expect("submit").job).collect();

    let keys: Vec<Key> = (0..40u64).map(|u| Key::from_u64(u * 37 % 1_500)).collect();
    let mut answers = Vec::new();
    let mut queries = 0;
    let mut ask = |server: &Server| {
        for &job in &ids {
            let mut asks: Vec<ServeQuery> = keys[..8]
                .iter()
                .map(|k| ServeQuery::Lookup(k.clone()))
                .collect();
            asks.push(ServeQuery::LookupBatch(keys.clone()));
            asks.push(ServeQuery::Progress);
            for q in &asks {
                let answer = server.query(job, q).map_err(|e| e.to_string());
                answers.extend_from_slice(format!("{job}:{answer:?}\n").as_bytes());
                queries += 1;
            }
        }
    };
    ask(&server);
    while server.step().expect("step") {
        ask(&server);
    }
    let text = String::from_utf8_lossy(&answers);
    assert!(
        text.contains("Value(Some(") && text.contains("Ok(Progress("),
        "no live lookup hit: the script pins nothing"
    );

    let mut opaq = Vec::new();
    let mut outputs = Vec::new();
    for &job in &ids {
        if let Some(path) = server.dlq_path(job) {
            opaq.extend(std::fs::read(path).expect("quarantine file"));
        }
        outputs.push(
            server
                .outcome(job)
                .map_or(0, |o| crc32(format!("{:?}", o.job.output).as_bytes())),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    Pins {
        answers: crc32(&answers),
        queries,
        trace: crc32(format!("{:?}", server.trace()).as_bytes()),
        books: crc32(format!("{:?}", server.books()).as_bytes()),
        opaq: crc32(&opaq),
        outputs,
        rounds: server.round(),
    }
}

fn check(two_tenants: bool, pinned: &Pins) {
    let data = Arc::new(ClickStreamSpec::counting_scaled(1 << 19).generate(11));
    for threads in [1, 4] {
        let got = drain(&data, threads, two_tenants);
        assert!(
            got.opaq != crc32(&[]),
            "the poisoned job quarantined nothing"
        );
        assert_eq!(
            &got, pinned,
            "two tenants: {two_tenants}, engine threads: {threads}"
        );
    }
}

#[test]
fn one_tenant_script_answers_pinned() {
    check(
        false,
        &Pins {
            answers: 3810814124,
            queries: 900,
            trace: 3783431221,
            books: 3406115572,
            opaq: 984492968,
            outputs: vec![486482327, 1943817182, 1079614825, 4122631963, 1079614825],
            rounds: 17,
        },
    );
}

#[test]
fn two_tenant_script_answers_pinned() {
    check(
        true,
        &Pins {
            answers: 260599353,
            queries: 500,
            trace: 906963081,
            books: 1424704382,
            opaq: 984492968,
            outputs: vec![486482327, 1943817182, 1079614825, 4122631963, 1079614825],
            rounds: 9,
        },
    );
}
