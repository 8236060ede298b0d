//! Time-series substrate for `evoforecast`.
//!
//! Everything the experiments consume lives here:
//!
//! * [`series::TimeSeries`] — the owned series container,
//! * [`normalize`] — the min-max scaler with its exact inverse (the paper
//!   standardizes Mackey-Glass and sunspots to `[0, 1]`),
//! * [`window`] — sliding-window datasets: `D` consecutive values predict the
//!   value `τ` steps after the window, exactly the paper's encoding,
//! * [`split`] — chronological train/validation splits,
//! * [`io`] — minimal CSV read/write for series,
//! * [`gen`] — synthetic generators: the Mackey-Glass delay differential
//!   equation (RK4), a Venice-lagoon tide simulator (harmonics + AR surge
//!   shocks), a Schwabe-cycle sunspot generator, plus chaotic maps and AR
//!   processes for tests and ablations.
//!
//! # Quickstart
//!
//! ```
//! use evoforecast_tsdata::gen::mackey_glass::MackeyGlass;
//! use evoforecast_tsdata::window::WindowSpec;
//!
//! let series = MackeyGlass::paper_setup().generate(100);
//! let spec = WindowSpec::new(4, 1).unwrap();
//! let ds = spec.dataset(series.values()).unwrap();
//! assert!(ds.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod gaps;
pub mod gen;
pub mod io;
pub mod normalize;
pub mod series;
pub mod spectrum;
pub mod split;
pub mod window;

pub use error::DataError;
pub use series::TimeSeries;
pub use window::{WindowSpec, WindowedDataset};
