//! Numeric kernels: reductions, GEMM, convolution, pooling.
//!
//! The GEMM and softmax/reduction families dispatch per call on
//! [`crate::Backend`]: a scalar reference path (the numeric oracle) and
//! the cache-blocked packed path in `blocked`.

pub(crate) mod blocked;
pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod pool;
pub mod reduce;
