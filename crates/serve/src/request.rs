//! Request/response types of the serving layer.

use hht_sparse::{CsrMatrix, DenseVector, SparseFormat, SparseVector};
use hht_system::runner::FabricRunOutput;
use std::sync::Arc;
use std::time::Duration;

/// Which accelerated kernel a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Sparse matrix × dense vector.
    Spmv,
    /// Sparse matrix × sparse vector, variant 1 (sparse gather against
    /// dense-indexed windows).
    SpmspvV1,
    /// Sparse matrix × sparse vector, variant 2 (intersection in the HHT).
    SpmspvV2,
}

impl KernelKind {
    /// Stable one-byte tag mixed into cache keys.
    pub fn tag(self) -> u8 {
        match self {
            KernelKind::Spmv => 0,
            KernelKind::SpmspvV1 => 1,
            KernelKind::SpmspvV2 => 2,
        }
    }
}

/// The kernel's vector operand. Requests hold `Arc`s so a client replaying
/// the same operand shares storage (and the service can memoize its
/// content hash by allocation identity).
#[derive(Debug, Clone)]
pub enum Operand {
    /// Dense operand (SpMV).
    Dense(Arc<DenseVector>),
    /// Sparse operand (SpMSpV).
    Sparse(Arc<SparseVector>),
}

impl Operand {
    /// Stable content hash of the vector.
    pub(crate) fn content_hash(&self) -> u64 {
        match self {
            Operand::Dense(v) => v.content_hash(),
            Operand::Sparse(x) => x.content_hash(),
        }
    }
}

/// One job: a tenant asks for `kernel(matrix, operand)`.
#[derive(Debug, Clone)]
pub struct Request {
    /// Admission-fairness domain; each wave serves at most one request per
    /// tenant.
    pub tenant: usize,
    /// Which kernel to run.
    pub kernel: KernelKind,
    /// The CSR matrix operand.
    pub matrix: Arc<CsrMatrix>,
    /// The vector operand (dense for SpMV, sparse for SpMSpV).
    pub operand: Operand,
}

impl Request {
    /// An SpMV request. Panics if shapes disagree — a malformed request is
    /// a client bug, not a runtime condition.
    pub fn spmv(tenant: usize, matrix: Arc<CsrMatrix>, v: Arc<DenseVector>) -> Self {
        assert_eq!(v.len(), matrix.cols(), "spmv operand length must equal matrix cols");
        Request { tenant, kernel: KernelKind::Spmv, matrix, operand: Operand::Dense(v) }
    }

    /// An SpMSpV variant-1 request.
    pub fn spmspv_v1(tenant: usize, matrix: Arc<CsrMatrix>, x: Arc<SparseVector>) -> Self {
        assert_eq!(x.len(), matrix.cols(), "spmspv operand length must equal matrix cols");
        Request { tenant, kernel: KernelKind::SpmspvV1, matrix, operand: Operand::Sparse(x) }
    }

    /// An SpMSpV variant-2 request.
    pub fn spmspv_v2(tenant: usize, matrix: Arc<CsrMatrix>, x: Arc<SparseVector>) -> Self {
        assert_eq!(x.len(), matrix.cols(), "spmspv operand length must equal matrix cols");
        Request { tenant, kernel: KernelKind::SpmspvV2, matrix, operand: Operand::Sparse(x) }
    }

    /// Rows of this request's output vector.
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Fabric pass simulated (a one-shot run, or a member of a batch).
    Cold,
    /// Never produced: the plan tier it named is gone. Kept only so the
    /// benchmark adapter's match compiles until the runner's entry points
    /// fold into one `run`.
    PlanHit,
    /// Replay-cache hit: no simulation, the memoized output was returned
    /// (bit-identical to re-running, by the pinned determinism).
    ReplayHit,
}

/// One served request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Tenant the request belonged to.
    pub tenant: usize,
    /// This job's output vector (demultiplexed from the pass when the job
    /// was batched).
    pub y: DenseVector,
    /// The fabric pass (or replayed pass) that produced `y`. Shared by
    /// every job of a batch: its stats and recovery report describe the
    /// whole pass, with this job's share delimited by `rows`.
    pub run: Arc<FabricRunOutput>,
    /// This job's row range within `run.y`.
    pub rows: (usize, usize),
    /// Which serving tier satisfied the request.
    pub served: Served,
    /// Jobs co-batched into the producing pass (1 = singleton).
    pub batch_size: usize,
    /// Host latency from wave dispatch to completion of the producing
    /// unit (informational; replays are near-zero).
    pub latency: Duration,
}
