//! `xmlrel-core` — storage and retrieval of XML data using relational
//! databases.
//!
//! The primary contribution of the reproduced work: store XML documents in
//! a relational database under one of six published mapping schemes,
//! translate an XPath/XQuery subset into SQL over the shredded tables, and
//! publish relational results back as XML.
//!
//! # Quickstart
//!
//! ```
//! use xmlrel_core::{Scheme, XmlStore};
//! use shredder::IntervalScheme;
//!
//! let mut store = XmlStore::builder(Scheme::Interval(IntervalScheme::new())).open().unwrap();
//! store.load_str("bib", r#"<bib><book year="1994"><title>TCP/IP</title></book></bib>"#).unwrap();
//! let titles = store.request("/bib/book[@year > 1990]/title/text()").run().unwrap();
//! assert_eq!(titles.items, vec!["TCP/IP"]);
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod contract;
pub mod error;
pub mod ledger;
mod publish;
pub mod serve;
pub mod sqlgen;
pub mod store;
pub mod update;

pub use compile::driver::{OutKind, Translated};
pub use compile::{NodeKey, StepCompiler};
pub use contract::{check_contract, AccessContract, DescendantAccess, IndexPat, QueryTraits};
pub use error::{CoreError, Result};
pub use ledger::{FingerprintStats, Ledger, LedgerConfig, SlowCapture, SlowTrigger};
pub use serve::{DrainReport, MonitorHandle, ServerBuilder};
pub use store::{
    Explain, HealthReport, PlanReport, QueryOutput, QueryRequest, Scheme, StoreBuilder, XmlStore,
};
