//! Typed errors for the batch orchestrator.
//!
//! Before this module existed the service surfaced raw
//! [`cloudsim::CloudError`]s, forcing callers to string-format batch-level
//! failures (`format!("pool resize: {e}")`). `BatchError` distinguishes the
//! batch-layer failure modes — a missing/deleted pool, a populated pool, an
//! invalid task layout — from genuine cloud control-plane errors, and
//! carries the cloud error as a typed `source()` instead of flattened text.

use cloudsim::CloudError;
use std::fmt;

/// An error from the batch service.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// The underlying cloud provider rejected an operation (quota, faults,
    /// unknown SKU, …).
    Cloud(CloudError),
    /// The named pool does not exist or is deleted.
    PoolUnavailable {
        /// Pool name as requested.
        pool: String,
    },
    /// The pool still has nodes, so its capacity class cannot change.
    PoolBusy {
        /// Pool name as requested.
        pool: String,
    },
    /// A task layout that can never run (zero nodes, zero ppn, or more
    /// processes per node than the SKU has cores).
    InvalidLayout {
        /// Nodes requested by the task.
        nodes: u32,
        /// Processes per node requested.
        ppn: u32,
        /// Cores available per node on the pool's SKU.
        cores: u32,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Cloud(e) => write!(f, "{e}"),
            BatchError::PoolUnavailable { pool } => {
                write!(f, "pool '{pool}' does not exist or is deleted")
            }
            BatchError::PoolBusy { pool } => {
                write!(f, "pool '{pool}' still has nodes")
            }
            BatchError::InvalidLayout { nodes, ppn, cores } => write!(
                f,
                "invalid layout: nodes={nodes}, ppn={ppn} (sku has {cores} cores)"
            ),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Cloud(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CloudError> for BatchError {
    fn from(e: CloudError) -> Self {
        BatchError::Cloud(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn cloud_errors_keep_their_source() {
        let e = BatchError::from(CloudError::UnknownSku("X".into()));
        assert!(e.source().is_some());
        assert!(e.to_string().contains('X'));
    }

    #[test]
    fn layout_error_renders_all_fields() {
        let e = BatchError::InvalidLayout {
            nodes: 2,
            ppn: 200,
            cores: 120,
        };
        let msg = e.to_string();
        assert!(msg.contains("nodes=2") && msg.contains("ppn=200") && msg.contains("120"));
        assert!(e.source().is_none());
    }
}
