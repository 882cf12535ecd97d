//! The detection request — the unit of work flowing from the platform's
//! arrival queue to a detection service.

use enld_datagen::Dataset;

/// A noisy-label-detection request for one incremental dataset.
#[derive(Debug, Clone)]
pub struct DetectionRequest {
    /// The dataset's number in the lake: the inventory is 0, so arrival
    /// `i` (from 0) is `i + 1`.
    pub dataset_id: u64,
    /// The incremental dataset `D_i` (observed labels, possibly missing).
    pub data: Dataset,
}
