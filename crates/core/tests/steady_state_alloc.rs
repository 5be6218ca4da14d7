//! Pins the tentpole property: the hardware-order kernels allocate **zero
//! heap memory per image** on the steady-state path. A counting global
//! allocator wraps the system allocator; after warming each arena up we
//! run many more images and assert the allocation counter does not move.
//!
//! This file holds a single test on purpose — a process-wide allocator
//! counter cannot distinguish concurrent tests.

use dfcnn_core::kernel::{
    conv_forward_hw_into, fc_forward_hw_into, pool_forward_hw_into, ConvArena, FcArena, FcWeights,
    PackedFilters, PoolArena,
};
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::{Conv2d, Linear, Pool2d, PoolKind};
use dfcnn_tensor::{ConvGeometry, Shape3, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn conv_pool_fc_steady_state_is_allocation_free() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    // conv: padded + strided so both window-build paths are exercised
    let conv_geo = ConvGeometry::new(Shape3::new(12, 12, 4), 3, 3, 1, 1);
    let filters = dfcnn_tensor::init::conv_filters(&mut rng, 6, 3, 3, 4);
    let cbias = dfcnn_tensor::init::random_vector(&mut rng, 6, -0.1, 0.1);
    let conv = Conv2d::new(conv_geo, filters, cbias, Activation::Tanh);
    let conv_in = dfcnn_tensor::init::random_volume(&mut rng, conv_geo.input, -1.0, 1.0);
    let mut conv_out = Tensor3::zeros(conv.output_shape());
    let packed = PackedFilters::new(conv.filters(), conv.bias());
    let mut conv_arena = ConvArena::new(&conv, &packed, 2);

    // pool
    let pool_geo = ConvGeometry::new(conv.output_shape(), 2, 2, 2, 0);
    let pool = Pool2d::new(pool_geo, PoolKind::Max);
    let mut pool_out = Tensor3::zeros(pool.output_shape());
    let mut pool_arena = PoolArena::new(&pool);

    // global mean pool, ResNet-8's shape: one 8x8 window per channel
    let mean_geo = ConvGeometry::new(Shape3::new(8, 8, 32), 8, 8, 8, 0);
    let mean_pool = Pool2d::new(mean_geo, PoolKind::Mean);
    let mean_in = dfcnn_tensor::init::random_volume(&mut rng, mean_geo.input, -1.0, 1.0);
    let mut mean_out = Tensor3::zeros(mean_pool.output_shape());
    let mut mean_arena = PoolArena::new(&mean_pool);

    // fc fed from the pool output, flattened
    let fc_inputs = pool.output_shape().len();
    let w = dfcnn_tensor::init::linear_weights(&mut rng, fc_inputs, 10);
    let fbias = dfcnn_tensor::init::random_vector(&mut rng, 10, -0.1, 0.1);
    let fc = Linear::new(w, fbias, Activation::Identity);
    let mut fc_in = Tensor3::zeros(Shape3::new(1, 1, fc_inputs));
    let mut fc_out = Tensor3::zeros(Shape3::new(1, 1, 10));
    let fc_weights = FcWeights::new(fc.weights(), fc.bias());
    let mut fc_arena = FcArena::new(&fc_weights, 11);

    let run_image = |conv_arena: &mut ConvArena,
                     pool_arena: &mut PoolArena,
                     mean_arena: &mut PoolArena,
                     fc_arena: &mut FcArena,
                     conv_out: &mut Tensor3<f32>,
                     pool_out: &mut Tensor3<f32>,
                     mean_out: &mut Tensor3<f32>,
                     fc_in: &mut Tensor3<f32>,
                     fc_out: &mut Tensor3<f32>| {
        conv_forward_hw_into(&conv, &packed, 2, &conv_in, conv_out, conv_arena);
        pool_forward_hw_into(&pool, conv_out, pool_out, pool_arena);
        pool_forward_hw_into(&mean_pool, &mean_in, mean_out, mean_arena);
        fc_in.as_mut_slice().copy_from_slice(pool_out.as_slice());
        fc_forward_hw_into(&fc, &fc_weights, fc_in, fc_out, fc_arena);
    };

    // warmup: lets any lazy one-time allocation happen
    run_image(
        &mut conv_arena,
        &mut pool_arena,
        &mut mean_arena,
        &mut fc_arena,
        &mut conv_out,
        &mut pool_out,
        &mut mean_out,
        &mut fc_in,
        &mut fc_out,
    );

    let before = allocations();
    for _ in 0..25 {
        run_image(
            &mut conv_arena,
            &mut pool_arena,
            &mut mean_arena,
            &mut fc_arena,
            &mut conv_out,
            &mut pool_out,
            &mut mean_out,
            &mut fc_in,
            &mut fc_out,
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state kernels allocated {} times over 25 images",
        after - before
    );
    // the result is still a real forward pass
    assert!(fc_out.as_slice().iter().all(|v| v.is_finite()));
    assert!(mean_out.as_slice().iter().all(|v| v.abs() <= 1.0));
}
