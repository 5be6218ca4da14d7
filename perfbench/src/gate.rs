//! The correctness gate every run passes through.
//!
//! The first host pass over the image pool is the reference. That pass is
//! checked against `NetworkDesign::hw_forward` on a sample, and every
//! later host batch and every simulated batch must reproduce it bit for
//! bit. An image fails on any bit mismatch; a `SimError` fails every image
//! of its batch.

use dfcnn_tensor::Tensor3;

/// Bit patterns of one image's output scores.
pub type Bits = Vec<u32>;

/// Output bits of a score vector.
pub fn bits(scores: &[f32]) -> Bits {
    scores.iter().map(|v| v.to_bits()).collect()
}

/// Reference outputs and the running failure count.
#[derive(Clone, Debug)]
pub struct Gate {
    reference: Vec<Bits>,
    /// Images whose output was checked.
    pub attempted: u64,
    /// Images that failed.
    pub failed: u64,
    /// One line per failure kind seen (first occurrence only).
    pub notes: Vec<String>,
}

impl Gate {
    /// A gate whose reference is `outputs`, indexed by pool image.
    pub fn new(outputs: &[Tensor3<f32>]) -> Self {
        Gate {
            reference: outputs.iter().map(|t| bits(t.as_slice())).collect(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Check one image's scores against the reference.
    pub fn check(&mut self, engine: &str, image: usize, scores: &[f32]) {
        self.attempted += 1;
        if self.reference[image] != bits(scores) {
            self.fail(
                1,
                format!("{engine}: image {image} differs from the reference bits"),
            );
        }
    }

    /// Count `images` failed images for one cause.
    pub fn fail(&mut self, images: u64, note: String) {
        self.failed += images;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// FNV-1a digest of every reference output, in pool order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in self.reference.iter().flatten() {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}
