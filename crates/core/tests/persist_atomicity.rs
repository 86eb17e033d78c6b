//! Crash-safety of model artifacts: `SynCircuit::save` must be atomic
//! (temp-sibling + rename), so a concurrent `load` — a real scenario now
//! that a serving daemon's model registry reads artifacts other
//! processes rewrite — never observes a torn file. I/O errors must name
//! the offending path, or multi-artifact registry failures are
//! undiagnosable.

use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use syncircuit_core::{Error, PersistError, PipelineConfig, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;

fn tiny_model(seed: u64) -> SynCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus: Vec<_> = (0..2)
        .map(|_| random_circuit_with_size(&mut rng, 20))
        .collect();
    let config = PipelineConfig::builder().seed(seed).build().unwrap();
    SynCircuit::fit(&corpus, config).unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("syncircuit-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn interleaved_save_and_load_never_tear() {
    // One thread rewrites the artifact in a tight loop while another
    // loads it; with a non-atomic save the loader races a truncated
    // file and fails with PersistError::Parse. With temp+rename every
    // load sees a complete artifact.
    let model = tiny_model(11);
    let path = temp_path("interleaved.json");
    model.save(&path).unwrap();
    let reference = model.to_json();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let saver = scope.spawn(|| {
            for _ in 0..60 {
                model.save(&path).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        let loader = scope.spawn(|| {
            let mut loads = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let loaded = SynCircuit::load(&path).unwrap_or_else(|e| {
                    panic!("torn or unreadable artifact after {loads} loads: {e}")
                });
                assert_eq!(
                    loaded.to_json(),
                    reference,
                    "every observed artifact is the complete render"
                );
                loads += 1;
            }
            assert!(loads > 0, "loader must overlap the saver at least once");
        });
        saver.join().unwrap();
        loader.join().unwrap();
    });
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn save_leaves_no_temp_droppings() {
    let model = tiny_model(12);
    let path = temp_path("clean.json");
    for _ in 0..3 {
        model.save(&path).unwrap();
    }
    let dir = path.parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("clean.json.tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn io_errors_name_the_offending_path() {
    let model = tiny_model(13);
    let missing_dir = temp_path("no-such-dir").join("model.json");
    let err = model.save(&missing_dir).unwrap_err();
    match &err {
        Error::Persist(PersistError::Io(msg)) => assert!(
            msg.contains("no-such-dir") && msg.contains("model.json"),
            "save error must name the path: {msg}"
        ),
        other => panic!("expected PersistError::Io, got {other:?}"),
    }

    let absent = temp_path("absent-artifact.json");
    let err = SynCircuit::load(&absent).unwrap_err();
    match &err {
        Error::Persist(PersistError::Io(msg)) => assert!(
            msg.contains("absent-artifact.json"),
            "load error must name the path: {msg}"
        ),
        other => panic!("expected PersistError::Io, got {other:?}"),
    }
}
