//! Single-group aggregation (`COUNT`, `MAX`; the subset has no GROUP BY).

use crate::error::Result;
use crate::exec::{Executor, Meter};
use crate::plan::expr::{AggFunc, ScalarExpr};
use crate::value::{Row, Value};

/// Aggregate operator: consumes its input at first `next()` and emits
/// exactly one row, even over an empty input.
pub struct HashAggregateExec<'a> {
    input: Option<Box<dyn Executor + 'a>>,
    aggs: &'a [(AggFunc, Option<ScalarExpr>)],
    meter: Meter,
}

impl<'a> HashAggregateExec<'a> {
    /// Create the operator.
    pub fn new(
        input: Box<dyn Executor + 'a>,
        aggs: &'a [(AggFunc, Option<ScalarExpr>)],
        meter: Meter,
    ) -> HashAggregateExec<'a> {
        HashAggregateExec {
            input: Some(input),
            aggs,
            meter,
        }
    }
}

impl Executor for HashAggregateExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        // COUNT starts at 0; MAX starts at NULL.
        let mut acc: Row = self
            .aggs
            .iter()
            .map(|(f, _)| match f {
                AggFunc::CountStar | AggFunc::Count => Value::Int(0),
                AggFunc::Max => Value::Null,
            })
            .collect();
        while let Some(row) = input.next()? {
            self.meter.poll("HashAggregate")?;
            for (slot, (func, arg)) in acc.iter_mut().zip(self.aggs) {
                // COUNT(*) has no argument and counts every row; COUNT(e)
                // and MAX(e) skip NULLs.
                let v = match arg {
                    Some(e) => e.eval(&row)?,
                    None => Value::Bool(true),
                };
                if v.is_null() {
                    continue;
                }
                match (func, slot) {
                    (AggFunc::CountStar | AggFunc::Count, Value::Int(n)) => *n += 1,
                    (AggFunc::Max, cur) if cur.is_null() || v > *cur => *cur = v,
                    _ => {}
                }
            }
        }
        Ok(Some(acc))
    }
}
