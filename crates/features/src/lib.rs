//! # etap-features — feature abstraction and selection for ETAP
//!
//! Implements §3.2 of the paper:
//!
//! * **Relative information gain** (Eq. 1):
//!   `RIG(Y|X) = (H(Y) − H(Y|X)) / H(Y)` — see [`rig`].
//! * **Abstraction categories** and their two competing random-variable
//!   representations, **Presence–Absence (PA)** and **Instance-Valued
//!   (IV)** — see [`abstraction`]. The paper computes `RIG` for both
//!   representations of every category (13 NE tags + POS tags) and
//!   abstracts a category iff PA carries at least as much information as
//!   IV. Figures 3 and 4 of the paper plot exactly this analysis; the
//!   bench crate regenerates them.
//! * **Classic feature selection** measures — χ², information gain and
//!   (pointwise) mutual information (§3.2.1 lists them as the standard
//!   alternatives) — see [`select`].
//! * The **vectorizer** that turns an annotated snippet into a sparse
//!   bag-of-features vector under a chosen [`AbstractionPolicy`] — see
//!   [`vectorize`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod entropy;
pub mod select;
pub mod vectorize;

pub use abstraction::{
    AbstractionCategory, AbstractionPolicy, CategoryChoice, RigAnalysis, RigReport,
};
pub use entropy::{entropy, rig};
pub use select::{chi_square, information_gain, mutual_information, FeatureStats};
pub use vectorize::{FeatureWalk, ProbedWalk, SparseVec, TermIndex, VectorScratch, Vectorizer};
