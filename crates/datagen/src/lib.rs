//! Synthetic dataset generators.
//!
//! The paper evaluates on two flickr crawls and one Yahoo! Answers crawl
//! that are not publicly available.  This crate generates synthetic
//! datasets with the same *structural* properties the evaluation depends
//! on:
//!
//! * items and consumers described by term vectors (tags for flickr,
//!   tf·idf-weighted words for Yahoo! Answers) over a Zipf-distributed
//!   vocabulary, so edge similarities follow the heavy-tailed shape of
//!   Figure 6;
//! * power-law user activity (`n(u)` = photos posted / answers written)
//!   and photo popularity (`f(p)` = favourites), so the capacity
//!   distributions match the skew of Figure 7;
//! * the paper's own capacity formulas of Sections 4 and 6
//!   (`b(u) = α·n(u)`, flickr's favourite-proportional item capacities and
//!   Yahoo! Answers' uniform question capacities).
//!
//! Modules:
//!
//! * [`powerlaw`] — Zipf and discrete power-law samplers,
//! * [`social`] — the [`social::SocialDataset`] container shared by all
//!   generators,
//! * [`flickr`] — the photo-sharing generator (tags, favourites, activity),
//! * [`answers`] — the question-answering generator (question/answer text),
//! * [`presets`] — laptop-scale stand-ins for `flickr-small`,
//!   `flickr-large` and `yahoo-answers`,
//! * [`pathological`] — the increasing-weight path that forces GreedyMR
//!   into a linear number of rounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod answers;
pub mod flickr;
pub mod pathological;
pub mod powerlaw;
pub mod presets;
pub mod social;

pub use answers::AnswersGenerator;
pub use flickr::FlickrGenerator;
pub use presets::DatasetPreset;
pub use social::SocialDataset;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::answers::AnswersGenerator;
    pub use crate::flickr::FlickrGenerator;
    pub use crate::pathological;
    pub use crate::powerlaw::{PowerLawSampler, ZipfSampler};
    pub use crate::presets::DatasetPreset;
    pub use crate::social::SocialDataset;
}
