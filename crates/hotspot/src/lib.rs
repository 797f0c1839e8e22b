//! Spatial and temporal hotspot detection (paper §4.3).
//!
//! People's urban activities burst in geographic regions and time periods;
//! the paper turns raw coordinates and timestamps into discrete *hotspot*
//! units via kernel density estimation with the Epanechnikov kernel and
//! mean-shift mode seeking (Definition 5, Eq. 1). Those hotspot units become
//! the `L` and `T` vertices of the activity graph.
//!
//! This crate implements:
//!
//! * mean-shift over pluggable metric spaces ([`meanshift`], [`space`]) —
//!   planar 2-D for locations, circular 1-D for time of day (prefix-sum
//!   window means, O(log n) per step),
//! * a uniform grid index accelerating window queries ([`grid`]),
//! * detectors producing [`SpatialHotspots`] and [`TemporalHotspots`] with
//!   fast nearest-hotspot assignment for new data points (§4.3's
//!   "choose the closest hotspot" rule).

pub mod detect;
pub mod grid;
pub mod meanshift;
pub mod space;

pub use detect::{SpatialHotspotId, SpatialHotspots, TemporalHotspotId, TemporalHotspots};
pub use meanshift::{MeanShift, MeanShiftParams};
