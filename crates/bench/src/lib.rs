//! Reproduction harness for the EDBT 2014 L-opacity evaluation.
//!
//! Every table and figure of the paper's Section 6 maps to one module under
//! [`experiments`]; the `repro` binary dispatches to them and writes one CSV
//! per experiment plus a paper-style console table. See DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured notes.
//!
//! The harness measures the *shape* of the paper's results (who wins, by
//! how much, where methods fail), not the absolute runtimes of a 2014
//! Xeon cluster; datasets are the calibrated synthetic stand-ins of
//! `lopacity-gen` (DESIGN.md §6).

pub mod harness;
pub mod methods;
pub mod output;
pub mod scale;
pub mod sweep;

pub mod experiments {
    //! One module per paper table/figure.
    pub mod compare;
    pub mod fig10;
    pub mod fig11_12;
    pub mod fig6;
    pub mod fig7;
    pub mod optgap;
    pub mod fig8;
    pub mod fig9;
    pub mod session_sweep;
    pub mod tables;
    pub mod thm1;
}

pub use methods::{Method, MethodRun};
pub use scale::Scale;
