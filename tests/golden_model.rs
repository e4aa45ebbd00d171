//! Golden trained-model pin: the length and FNV-1a hash of
//! `persist::save` after training the `fast()` attack on `small(61)`.
//!
//! `tests/golden/trajectory_small.txt` pins edge counts and change
//! ratios, which a flipped low-order weight bit need not move. The saved
//! bytes hold every trained float, so any change to the autoencoder's or
//! the SVM's arithmetic — a reordered sum, a different rounding — shows
//! up here.
//!
//! To regenerate after an intentional numeric change:
//!
//! ```text
//! SEEKER_BLESS=1 cargo test --test golden_model
//! ```

use std::path::PathBuf;

use friendseeker::{persist, FriendSeeker, FriendSeekerConfig};
use seeker_trace::synth::{generate, SyntheticConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/model_small.txt")
}

#[test]
fn trained_model_bytes_match_golden() {
    let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
    let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
    let bytes = persist::save(&trained, train.pois()).unwrap();

    let doc = format!(
        "# Golden trained model: persist::save of FriendSeeker::new(fast()).train(small(61)).\n\
         # Regenerate: SEEKER_BLESS=1 cargo test --test golden_model\n\
         bytes={}\n\
         fnv1a={:016x}\n",
        bytes.len(),
        persist::fnv1a(&bytes)
    );

    let path = golden_path();
    if std::env::var("SEEKER_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {} ({e}); run with SEEKER_BLESS=1", path.display())
    });
    assert_eq!(
        doc,
        golden,
        "trained model bytes drifted from {}; if the change is intentional, \
         regenerate with SEEKER_BLESS=1 cargo test --test golden_model",
        path.display()
    );
}
