//! Functional verification of the accelerator against the software
//! reference.
//!
//! Three layers of checking, strongest first:
//!
//! 1. **Engine equivalence (exact)**: the cycle simulator and the threaded
//!    engine share the [`crate::kernel`] numerics, so their outputs must be
//!    bit-identical.
//! 2. **Reference closeness (tolerance)**: the accelerator's summation
//!    orders (tree adders, interleaved accumulators, port grouping) differ
//!    from the reference CNN's left-to-right sums, so scores agree within a
//!    small float tolerance.
//! 3. **Decision equivalence**: classifications (argmax over scores) must
//!    match the reference on well-separated inputs; disagreements are
//!    reported with their score margins so genuinely ambiguous inputs can
//!    be distinguished from bugs.

use crate::graph::NetworkDesign;
use dfcnn_tensor::Tensor3;

/// Outcome of verifying one batch.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Largest |simulated − reference| across all images and classes.
    pub max_abs_diff: f32,
    /// Images whose argmax disagreed with the reference, with the
    /// reference's winning margin (small margin ⇒ genuinely ambiguous).
    pub mismatches: Vec<Mismatch>,
    /// Number of images checked.
    pub checked: usize,
}

/// One prediction disagreement.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Batch index of the image.
    pub index: usize,
    /// Class chosen by the accelerator.
    pub hw_class: usize,
    /// Class chosen by the reference.
    pub ref_class: usize,
    /// Reference score gap between its top-2 classes.
    pub ref_margin: f32,
}

impl VerifyReport {
    /// Whether every prediction matched and scores stayed within `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.mismatches.is_empty() && self.max_abs_diff <= tol
    }
}

/// Reference scores for one image at the point where the fabric hands off
/// to the host: pre-softmax when the normalisation runs on the host,
/// post-softmax when the design carries an on-fabric normalisation core.
/// The reference composes the layers along the stage topology
/// ([`crate::model::reference_forward`]).
pub fn reference_scores(design: &NetworkDesign, image: &Tensor3<f32>) -> Vec<f32> {
    crate::model::reference_forward(design, image)
        .as_slice()
        .to_vec()
}

/// Compare accelerator outputs (one score vector per image) against the
/// reference network.
pub fn compare_outputs(
    design: &NetworkDesign,
    images: &[Tensor3<f32>],
    hw_outputs: &[Vec<f32>],
) -> VerifyReport {
    assert_eq!(images.len(), hw_outputs.len(), "batch size mismatch");
    let mut max_abs_diff = 0.0f32;
    let mut mismatches = Vec::new();
    for (i, (img, hw)) in images.iter().zip(hw_outputs.iter()).enumerate() {
        let reference = reference_scores(design, img);
        assert_eq!(reference.len(), hw.len(), "class count mismatch");
        for (a, b) in hw.iter().zip(reference.iter()) {
            max_abs_diff = max_abs_diff.max((a - b).abs());
        }
        let hw_class = argmax(hw);
        let ref_class = argmax(&reference);
        if hw_class != ref_class {
            mismatches.push(Mismatch {
                index: i,
                hw_class,
                ref_class,
                ref_margin: margin(&reference),
            });
        }
    }
    VerifyReport {
        max_abs_diff,
        mismatches,
        checked: images.len(),
    }
}

/// Run the cycle simulator on a batch and verify it end to end.
pub fn verify_simulated(design: &NetworkDesign, images: &[Tensor3<f32>]) -> VerifyReport {
    let (result, _) = design.instantiate(images).run();
    compare_outputs(design, images, &result.outputs)
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for i in 1..v.len() {
        if v[i] > v[best] {
            best = i;
        }
    }
    best
}

/// Gap between the largest and second-largest score.
fn margin(v: &[f32]) -> f32 {
    assert!(v.len() >= 2);
    let mut a = f32::NEG_INFINITY;
    let mut b = f32::NEG_INFINITY;
    for &x in v {
        if x > a {
            b = a;
            a = x;
        } else if x > b {
            b = x;
        }
    }
    a - b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DesignConfig, PortConfig};
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tc1_design(seed: u64) -> NetworkDesign {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = NetworkSpec::test_case_1().build(&mut rng);
        NetworkDesign::new(
            &net,
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn hw_forward_outputs_pass_comparison() {
        let design = tc1_design(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let imgs: Vec<_> = (0..3)
            .map(|_| {
                dfcnn_tensor::init::random_volume(
                    &mut rng,
                    design.network().input_shape(),
                    0.0,
                    1.0,
                )
            })
            .collect();
        let hw: Vec<Vec<f32>> = imgs
            .iter()
            .map(|x| design.hw_forward(x).into_vec())
            .collect();
        let report = compare_outputs(&design, &imgs, &hw);
        assert!(report.passes(1e-3), "report: {report:?}");
        assert_eq!(report.checked, 3);
    }

    #[test]
    fn corrupted_outputs_are_caught() {
        let design = tc1_design(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let img =
            dfcnn_tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0);
        let mut hw = design.hw_forward(&img).into_vec();
        // corrupt the winning score hard enough to flip the argmax
        let win = argmax(&hw);
        hw[win] = -100.0;
        let report = compare_outputs(&design, &[img], &[hw]);
        assert!(!report.passes(1e-3));
        assert_eq!(report.mismatches.len(), 1);
        assert_eq!(report.mismatches[0].ref_class, win);
    }

    #[test]
    fn margin_math() {
        assert_eq!(margin(&[3.0, 1.0, 2.5]), 0.5);
        assert_eq!(margin(&[1.0, 1.0]), 0.0);
    }
}
