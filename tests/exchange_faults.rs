//! Exchange fault suite: the multi-process sketch exchange must survive
//! hostile and half-dead inputs with **typed errors and a clean
//! coordinator exit** — no panics, no hangs, no leaked children — and a
//! clean run must produce a distributed triangle count **bit-equal** to
//! the single-process estimate computed with the same grouping.

use probgraph::exchange::{
    self, encode_frame_header, parse_frame_header, read_frame, run_exchange,
    single_process_partials, ExchangeError, ExchangeOptions, Fault, FrameHeader, FRAME_HEADER_LEN,
};
use probgraph::{PgConfig, ProbGraph, Representation};

use pg_graph::{gen, orient_by_degree, OrientedDag};

fn setup(rep: Representation, scale: u32) -> (OrientedDag, ProbGraph) {
    let g = gen::kronecker(scale, 8, 42);
    let dag = orient_by_degree(&g);
    let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &PgConfig::new(rep, 0.25));
    (dag, pg)
}

fn partition(n: usize, p: usize) -> Vec<u32> {
    // Deterministic but non-contiguous, so every pair has boundary.
    (0..n).map(|v| ((v * 7 + 3) % p) as u32).collect()
}

// ---------------------------------------------------------------------------
// In-process frame hostility: truncation at every boundary, bit flips.
// ---------------------------------------------------------------------------

#[test]
fn frame_truncated_at_every_byte_is_a_typed_error() {
    let payload: Vec<u8> = (0..100u32).flat_map(|x| x.to_le_bytes()).collect();
    let h = FrameHeader {
        from: 0,
        to: 1,
        kind: 0,
        chunk: 0,
        n_chunks: 1,
        payload_len: payload.len() as u64,
    };
    let mut wire = encode_frame_header(&h).to_vec();
    wire.extend_from_slice(&payload);

    // The full stream parses.
    let (gh, gp) = read_frame(&mut &wire[..]).expect("intact frame must parse");
    assert_eq!(gh, h);
    assert_eq!(&gp[..], &payload[..]);

    // Every proper prefix — cutting inside the header or inside the
    // payload — fails with a typed Frame error, never a panic.
    for cut in 0..wire.len() {
        match read_frame(&mut &wire[..cut]) {
            Err(ExchangeError::Frame(_)) => {}
            other => panic!("cut at byte {cut}: expected Frame error, got {other:?}"),
        }
    }
}

#[test]
fn header_bit_flips_never_parse() {
    let h = FrameHeader {
        from: 2,
        to: 5,
        kind: 1,
        chunk: 3,
        n_chunks: 8,
        payload_len: 4096,
    };
    let good = encode_frame_header(&h);
    for byte in 0..FRAME_HEADER_LEN {
        for bit in 0..8 {
            let mut bad = good;
            bad[byte] ^= 1 << bit;
            assert!(
                parse_frame_header(&bad).is_err(),
                "bit flip at byte {byte} bit {bit} parsed"
            );
        }
    }
}

#[test]
fn exact_rows_payload_validates_against_expected_rows() {
    let (dag, _) = setup(Representation::Bloom { b: 2 }, 7);
    let rows: Vec<u32> = (0..dag.num_vertices() as u32).step_by(5).collect();
    let payload = exchange::encode_exact_rows(&dag, &rows);
    exchange::check_exact_rows(&payload, &dag, &rows).expect("intact payload validates");

    // Truncation anywhere inside the payload is rejected.
    for cut in [0, 3, payload.len() / 2, payload.len() - 1] {
        assert!(exchange::check_exact_rows(&payload[..cut], &dag, &rows).is_err());
    }
    // A flipped neighbor id is rejected.
    if payload.len() > 8 {
        let mut bad = payload.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(exchange::check_exact_rows(&bad, &dag, &rows).is_err());
    }
    // The wrong expected row list is rejected.
    if rows.len() > 1 {
        assert!(exchange::check_exact_rows(&payload, &dag, &rows[1..]).is_err());
    }
}

// ---------------------------------------------------------------------------
// Multi-process: clean rounds are bit-exact, faulted rounds are typed.
// ---------------------------------------------------------------------------

#[test]
fn clean_exchange_matches_single_process_bit_for_bit() {
    for (rep, p) in [
        (Representation::Bloom { b: 2 }, 2),
        (Representation::Bloom { b: 2 }, 3),
        (Representation::OneHash, 4),
        (Representation::Kmv, 3),
        (Representation::Hll, 2),
    ] {
        let (dag, pg) = setup(rep, 8);
        let parts = partition(dag.num_vertices(), p);
        let report = run_exchange(&dag, &pg, &parts, p, &ExchangeOptions::default())
            .unwrap_or_else(|e| panic!("{rep:?} x{p}: exchange failed: {e}"));

        let reference = single_process_partials(&dag, &pg, &parts, p);
        assert_eq!(report.partials.len(), p);
        for (r, (&got, &want)) in report.partials.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{rep:?} x{p}: partial {r} differs: {got} vs {want}"
            );
        }
        let want_total: f64 = reference.iter().sum();
        assert_eq!(report.distributed_tc.to_bits(), want_total.to_bits());

        // Real communication happened and the sketch round was cheaper
        // than shipping exact adjacency lists.
        assert!(
            report.sketch_total() > 0,
            "{rep:?} x{p}: no sketch bytes measured"
        );
        assert!(
            report.exact_total() > 0,
            "{rep:?} x{p}: no exact bytes measured"
        );
        // Diagonal pairs never transfer.
        for q in 0..p {
            assert_eq!(report.sketch_pair_bytes[q][q], 0);
            assert_eq!(report.exact_pair_bytes[q][q], 0);
        }
    }
}

#[test]
fn stratified_exchange_matches_single_process_bit_for_bit() {
    use pg_sketch::StrataSpec;
    let g = gen::erdos_renyi_gnm(800, 24_000, 3);
    let dag = orient_by_degree(&g);
    for (rep, p) in [
        (Representation::Bloom { b: 2 }, 3),
        (Representation::OneHash, 3),
        (Representation::Kmv, 2),
        (Representation::Hll, 2),
    ] {
        let cfg = PgConfig::stratified(rep, 0.3, StrataSpec::skewed_default());
        let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
        assert!(
            pg.stratified_params().is_some(),
            "{rep:?}: budget collapsed to uniform; the test covers nothing"
        );
        let parts = partition(dag.num_vertices(), p);
        let opts = ExchangeOptions {
            chunk_sets: 64,
            ..ExchangeOptions::default()
        };
        let report = run_exchange(&dag, &pg, &parts, p, &opts)
            .unwrap_or_else(|e| panic!("{rep:?} x{p}: stratified exchange failed: {e}"));
        let reference = single_process_partials(&dag, &pg, &parts, p);
        for (r, (&got, &want)) in report.partials.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{rep:?} x{p}: partial {r} differs: {got} vs {want}"
            );
        }
        assert!(report.sketch_total() > 0, "{rep:?}: no sketch bytes");
    }
}

#[test]
fn single_part_exchange_has_no_communication_and_reduction_one() {
    let (dag, pg) = setup(Representation::Bloom { b: 2 }, 7);
    let parts = vec![0u32; dag.num_vertices()];
    let report = run_exchange(&dag, &pg, &parts, 1, &ExchangeOptions::default()).unwrap();
    assert_eq!(report.sketch_total(), 0);
    assert_eq!(report.exact_total(), 0);
    // 0/0 is "nothing to reduce", not infinity.
    assert_eq!(report.reduction(), 1.0);
    let reference: f64 = single_process_partials(&dag, &pg, &parts, 1).iter().sum();
    assert_eq!(report.distributed_tc.to_bits(), reference.to_bits());
}

#[test]
fn tiny_chunks_exercise_multi_frame_payloads() {
    let (dag, pg) = setup(Representation::OneHash, 8);
    let p = 3;
    let parts = partition(dag.num_vertices(), p);
    let opts = ExchangeOptions {
        chunk_sets: 7,
        ..ExchangeOptions::default()
    };
    let report = run_exchange(&dag, &pg, &parts, p, &opts).unwrap();
    let reference: f64 = single_process_partials(&dag, &pg, &parts, p).iter().sum();
    assert_eq!(report.distributed_tc.to_bits(), reference.to_bits());

    // Smaller chunks mean more frames, so strictly more measured bytes
    // than the default chunking for the same ship sets.
    let big = run_exchange(&dag, &pg, &parts, p, &ExchangeOptions::default()).unwrap();
    assert!(report.sketch_total() > big.sketch_total());
}

#[test]
fn killed_worker_is_a_typed_error_and_coordinator_recovers() {
    let (dag, pg) = setup(Representation::Bloom { b: 2 }, 7);
    let p = 3;
    let parts = partition(dag.num_vertices(), p);
    let opts = ExchangeOptions {
        fault: Some(Fault::KillWorker { part: 1 }),
        timeout: std::time::Duration::from_secs(10),
        ..ExchangeOptions::default()
    };
    match run_exchange(&dag, &pg, &parts, p, &opts) {
        Err(ExchangeError::WorkerExit { part, code }) => {
            assert_eq!(part, 1);
            assert_eq!(code, 43, "kill fault exits with its marker code");
        }
        other => panic!("expected WorkerExit, got {other:?}"),
    }
    // The coordinator reaped everything; a clean run still works.
    let report = run_exchange(&dag, &pg, &parts, p, &ExchangeOptions::default()).unwrap();
    let reference: f64 = single_process_partials(&dag, &pg, &parts, p).iter().sum();
    assert_eq!(report.distributed_tc.to_bits(), reference.to_bits());
}

#[test]
fn stalled_worker_is_killed_and_coordinator_recovers() {
    // A worker blocked outside socket I/O (say, on a lock that was held
    // at fork time) never exits on its own: the coordinator must kill it
    // once the timeout has passed, not wait forever.
    let (dag, pg) = setup(Representation::Bloom { b: 2 }, 7);
    let p = 3;
    let parts = partition(dag.num_vertices(), p);
    let opts = ExchangeOptions {
        fault: Some(Fault::StallWorker { part: 1 }),
        timeout: std::time::Duration::from_secs(1),
        ..ExchangeOptions::default()
    };
    let start = std::time::Instant::now();
    match run_exchange(&dag, &pg, &parts, p, &opts) {
        Err(ExchangeError::WorkerExit { part, code }) => {
            assert_eq!(part, 1);
            assert_eq!(code, -9, "the stalled worker is killed with SIGKILL");
        }
        other => panic!("expected WorkerExit, got {other:?}"),
    }
    let waited = start.elapsed();
    assert!(waited.as_secs() < 15, "coordinator took {waited:?}");
    // The coordinator reaped everything; a clean run still works.
    let report = run_exchange(&dag, &pg, &parts, p, &ExchangeOptions::default()).unwrap();
    let reference: f64 = single_process_partials(&dag, &pg, &parts, p).iter().sum();
    assert_eq!(report.distributed_tc.to_bits(), reference.to_bits());
}

#[test]
fn corrupt_payload_is_rejected_by_snapshot_validation() {
    let (dag, pg) = setup(Representation::Bloom { b: 2 }, 7);
    let p = 2;
    let parts = partition(dag.num_vertices(), p);
    let opts = ExchangeOptions {
        fault: Some(Fault::CorruptPayload { part: 0 }),
        ..ExchangeOptions::default()
    };
    match run_exchange(&dag, &pg, &parts, p, &opts) {
        // The *receiver* of part 0's bytes reports the rejection.
        Err(ExchangeError::Worker { part, detail }) => {
            assert_eq!(part, 1, "the peer of the corrupting part fails");
            assert!(
                detail.contains("snapshot rejected") || detail.contains("invalid payload"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("expected Worker error, got {other:?}"),
    }
    // Clean retry succeeds.
    assert!(run_exchange(&dag, &pg, &parts, p, &ExchangeOptions::default()).is_ok());
}

#[test]
fn truncated_stream_is_a_typed_error() {
    let (dag, pg) = setup(Representation::Bloom { b: 2 }, 7);
    let p = 2;
    let parts = partition(dag.num_vertices(), p);
    let opts = ExchangeOptions {
        fault: Some(Fault::TruncateStream { part: 0 }),
        timeout: std::time::Duration::from_secs(10),
        ..ExchangeOptions::default()
    };
    match run_exchange(&dag, &pg, &parts, p, &opts) {
        Err(ExchangeError::WorkerExit { part, code }) => {
            assert_eq!(part, 0);
            assert_eq!(code, 44, "truncate fault exits with its marker code");
        }
        // Depending on scheduling the peer's Frame error can surface
        // through its result blob instead — still typed, still clean.
        Err(ExchangeError::Worker { part, detail }) => {
            assert_eq!(part, 1);
            assert!(detail.contains("truncated"), "unexpected detail: {detail}");
        }
        other => panic!("expected WorkerExit or Worker error, got {other:?}"),
    }
    assert!(run_exchange(&dag, &pg, &parts, p, &ExchangeOptions::default()).is_ok());
}

#[test]
fn bad_arguments_are_protocol_errors() {
    let (dag, pg) = setup(Representation::Bloom { b: 2 }, 6);
    let n = dag.num_vertices();
    let opts = ExchangeOptions::default();
    assert!(matches!(
        run_exchange(&dag, &pg, &vec![0; n], 0, &opts),
        Err(ExchangeError::Protocol(_))
    ));
    assert!(matches!(
        run_exchange(&dag, &pg, &vec![0; n - 1], 2, &opts),
        Err(ExchangeError::Protocol(_))
    ));
    assert!(matches!(
        run_exchange(&dag, &pg, &vec![5; n], 2, &opts),
        Err(ExchangeError::Protocol(_))
    ));
}
