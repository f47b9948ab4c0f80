//! The checks made apart from the simulator: an f64 host reference of
//! Algorithm 1 and the conservation property. Problems come from
//! `wse_serve::CompiledProblem::compile`, the repository's standard
//! recipe, for every workload.

use fv_core::residual::assemble_flux_residual;
use fv_core::state::FlowState;
use fv_core::validate::rel_max_diff_vs_reference;
use wse_serve::CompiledProblem;

/// Largest accepted max-norm difference from the f64 reference, relative
/// to the reference's largest entry (the §7.1 tolerance of
/// `tests/cross_validation.rs`).
pub const REL_MAX_TOL: f64 = 1e-3;

/// Largest accepted `|Σr| / Σ|r|`. Every interior face adds its flux to
/// one cell and subtracts it from the other, so a residual that loses or
/// duplicates a face breaks this by orders of magnitude more.
pub const CONSERVATION_TOL: f64 = 1e-6;

/// The pressure vector the job server feeds application `i` of a job
/// with pressure seed `s` when `seed = s + i`; the fabric workloads use
/// the same generator.
pub fn pressure(problem: &CompiledProblem, seed: u64) -> Vec<f32> {
    FlowState::<f32>::varied(&problem.mesh, 1.0e7, 1.2e7, seed)
        .pressure()
        .to_vec()
}

/// Checks a fabric residual against the f64 host reference and the
/// conservation property. Returns `(rel_max, conservation)`.
pub fn check(
    problem: &CompiledProblem,
    pressure: &[f32],
    residual: &[f32],
) -> Result<(f64, f64), String> {
    if residual.len() != problem.mesh.num_cells() {
        return Err(format!(
            "residual has {} cells, mesh has {}",
            residual.len(),
            problem.mesh.num_cells()
        ));
    }
    if !residual.iter().all(|v| v.is_finite()) {
        return Err("residual is not finite".into());
    }
    let p64: Vec<f64> = pressure.iter().map(|&v| v as f64).collect();
    let mut reference = vec![0.0_f64; p64.len()];
    assemble_flux_residual(
        &problem.mesh,
        &problem.fluid,
        &problem.trans,
        &p64,
        &mut reference,
    );
    let rel_max = rel_max_diff_vs_reference(&reference, residual);
    let sum: f64 = residual.iter().map(|&v| v as f64).sum();
    let abs: f64 = residual.iter().map(|&v| (v as f64).abs()).sum();
    let conservation = sum.abs() / abs.max(f64::MIN_POSITIVE);
    if rel_max >= REL_MAX_TOL {
        return Err(format!(
            "rel-max difference {rel_max:.3e} >= {REL_MAX_TOL:e}"
        ));
    }
    if conservation >= CONSERVATION_TOL {
        return Err(format!(
            "|sum r| / sum |r| = {conservation:.3e} >= {CONSERVATION_TOL:e}"
        ));
    }
    Ok((rel_max, conservation))
}
