//! The four benchmark workloads.

pub mod ckks_step;
pub mod knn_hybrid;
pub mod sim_paper;
pub mod tfhe_sha256;

pub use ckks_step::CkksStep;
pub use knn_hybrid::KnnHybrid;
pub use sim_paper::SimPaper;
pub use tfhe_sha256::TfheSha256;
