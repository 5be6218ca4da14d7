//! Property-based tests of the core dataflow invariants.

mod common;

use common::{conv_forward_hw, fc_forward_hw, pool_forward_hw, random_dag_design};
use dfcnn::core::check::{check_design, RuleId, Severity};
use dfcnn::core::graph::DesignConfig;
use dfcnn::core::sim::SimError;
use dfcnn::core::sst::WindowEngine;
use dfcnn::core::stream::{ChannelSet, Fifo};
use dfcnn::hls::ii::pipeline_ii;
use dfcnn::hls::reduce::TreeAdder;
use dfcnn::nn::{Activation, Conv2d, Linear, Pool2d, PoolKind};
use dfcnn::tensor::{ConvGeometry, Shape3, Tensor1, Tensor3};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

// ---------------------------------------------------------------- FIFOs

proptest! {
    /// A FIFO never loses, duplicates or reorders values, whatever the
    /// interleaving of pushes, pops and commits.
    #[test]
    fn fifo_preserves_order(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let mut f = Fifo::new(8);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for op in ops {
            match op {
                0 => {
                    if f.can_push() {
                        f.push(next_in as f32);
                        next_in += 1;
                    }
                }
                1 => {
                    if let Some(v) = f.pop() {
                        prop_assert_eq!(v, next_out as f32, "reordered or lost value");
                        next_out += 1;
                    }
                }
                _ => f.commit(),
            }
        }
        // drain what remains
        f.commit();
        while let Some(v) = f.pop() {
            prop_assert_eq!(v, next_out as f32);
            next_out += 1;
        }
        prop_assert!(next_out <= next_in);
    }
}

// ------------------------------------- two-phase channels + waiter lists

proptest! {
    /// The channel bookkeeping behind the event-driven scheduler: for any
    /// interleaving of pushes, pops and cycle boundaries across several
    /// channels, values are never lost, duplicated or reordered, and the
    /// activity counter grows by one per staged value and one per consumed
    /// value — exactly when occupancy changes, never for refused pushes or
    /// empty pops.
    #[test]
    fn channel_events_mirror_occupancy_changes(
        ops in proptest::collection::vec((0u8..3, 0usize..3), 1..300)
    ) {
        let mut cs = ChannelSet::new();
        let chs: Vec<_> = (0..3).map(|_| cs.alloc(4)).collect();
        let mut visible: Vec<std::collections::VecDeque<f32>> =
            vec![std::collections::VecDeque::new(); 3];
        let mut staged: Vec<Vec<f32>> = vec![Vec::new(); 3];
        let mut next = 0f32;
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for (op, c) in ops {
            let ch = chs[c];
            match op {
                0 => {
                    // two-phase capacity: staged values already count
                    prop_assert_eq!(
                        cs.can_push(ch),
                        visible[c].len() + staged[c].len() < 4
                    );
                    if cs.can_push(ch) {
                        cs.push(ch, next);
                        staged[c].push(next);
                        next += 1.0;
                        pushed += 1;
                    }
                }
                1 => {
                    let got = cs.pop(ch);
                    let want = visible[c].pop_front();
                    prop_assert_eq!(got, want, "loss or reorder on channel {}", c);
                    if got.is_some() {
                        popped += 1;
                    }
                }
                _ => {
                    // cycle boundary: staged values become visible
                    cs.commit_dirty();
                    for (v, s) in visible.iter_mut().zip(staged.iter_mut()) {
                        v.extend(s.drain(..));
                    }
                }
            }
            prop_assert_eq!(cs.activity(), pushed + popped);
        }
        prop_assert_eq!(cs.total_in_flight() as u64, pushed - popped, "values lost");
    }

    /// Waiter-list registration (the wiring declared by each actor) is
    /// idempotent and order-preserving, whatever the registration sequence
    /// — the scheduler may re-register freely without duplicating wakes.
    #[test]
    fn waiter_registration_dedups_and_preserves_order(
        regs in proptest::collection::vec(
            (proptest::bool::ANY, 0usize..4, 0usize..6), 0..40)
    ) {
        let mut cs = ChannelSet::new();
        let chs: Vec<_> = (0..4).map(|_| cs.alloc(2)).collect();
        let mut model: Vec<(Vec<usize>, Vec<usize>)> = vec![(vec![], vec![]); 4];
        for (is_reader, c, actor) in regs {
            if is_reader {
                cs.register_reader(chs[c], actor);
                if !model[c].0.contains(&actor) {
                    model[c].0.push(actor);
                }
            } else {
                cs.register_writer(chs[c], actor);
                if !model[c].1.contains(&actor) {
                    model[c].1.push(actor);
                }
            }
        }
        for c in 0..4 {
            prop_assert_eq!(cs.readers(chs[c]), model[c].0.as_slice());
            prop_assert_eq!(cs.writers(chs[c]), model[c].1.as_slice());
        }
    }
}

// ---------------------------------------------------------- tree adders

proptest! {
    /// The tree adder computes the exact sum on integer-valued floats
    /// (where float addition is associative), for any arity.
    #[test]
    fn tree_adder_exact_on_integers(vals in proptest::collection::vec(-1000i32..1000, 1..200)) {
        let f: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
        let tree = TreeAdder::new(f.len());
        let expect: i64 = vals.iter().map(|&v| v as i64).sum();
        prop_assert_eq!(tree.sum(&f), expect as f32);
        let mut buf = f.clone();
        prop_assert_eq!(tree.sum_in_place(&mut buf), expect as f32);
    }

    /// Tree depth is logarithmic and adder count linear.
    #[test]
    fn tree_adder_costs(n in 1usize..10_000) {
        let t = TreeAdder::new(n);
        prop_assert_eq!(t.adder_count(), n - 1);
        prop_assert!(2usize.pow(t.depth()) >= n);
        if n > 1 {
            prop_assert!(2usize.pow(t.depth() - 1) < n);
        }
    }
}

// ---------------------------------------------------------------- Eq. 4

proptest! {
    /// Eq. 4 bounds both port serialisations and reaches 1 exactly when
    /// both sides are fully parallel.
    #[test]
    fn ii_formula_bounds(in_fm in 1usize..64, out_fm in 1usize..64) {
        // choose random divisors as port counts
        let in_ports = (1..=in_fm).rev().find(|p| in_fm % p == 0 && *p <= 8).unwrap();
        let out_ports = (1..=out_fm).rev().find(|p| out_fm % p == 0 && *p <= 8).unwrap();
        let ii = pipeline_ii(in_fm, in_ports, out_fm, out_ports);
        prop_assert!(ii >= in_fm.div_ceil(in_ports));
        prop_assert!(ii >= out_fm.div_ceil(out_ports));
        prop_assert_eq!(
            pipeline_ii(in_fm, in_fm, out_fm, out_fm),
            1,
            "fully parallel must give II = 1"
        );
    }
}

// ------------------------------------------------------- window engines

/// Strategy for a random valid conv geometry (pad 0, the paper's setting).
fn geometry() -> impl Strategy<Value = (ConvGeometry, usize)> {
    (2usize..10, 2usize..10, 1usize..5, 1usize..4, 1usize..3).prop_flat_map(
        |(h_extra, w_extra, c, k, stride)| {
            let kh = k.min(h_extra);
            let kw = k.min(w_extra);
            let geo = ConvGeometry::new(
                Shape3::new(h_extra + kh, w_extra + kw, c),
                kh,
                kw,
                stride,
                0,
            );
            let divisors: Vec<usize> = (1..=c).filter(|p| c % p == 0).collect();
            (Just(geo), proptest::sample::select(divisors))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming an image through the window engine reproduces exactly the
    /// host-side window extraction, for arbitrary geometry and port split.
    #[test]
    fn window_engine_matches_host_extraction((geo, ports) in geometry(), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let img = dfcnn::tensor::init::random_volume(&mut rng, geo.input, -1.0, 1.0);
        let mut eng = WindowEngine::new(geo, ports);
        let chpp = geo.input.c / ports;
        let mut streams: Vec<Vec<f32>> = vec![Vec::new(); ports];
        for px in img.as_slice().chunks(geo.input.c) {
            for (f, &v) in px.iter().enumerate() {
                streams[f % ports].push(v);
            }
        }
        let _ = chpp;
        let mut cursors = vec![0usize; ports];
        let mut got = Vec::new();
        let mut guard = 0;
        while got.len() < geo.positions() {
            guard += 1;
            prop_assert!(guard < 1_000_000, "no progress");
            for p in 0..ports {
                if cursors[p] < streams[p].len() && eng.can_accept(p) {
                    eng.accept(p, streams[p][cursors[p]]);
                    cursors[p] += 1;
                }
            }
            while eng.window_ready() && got.len() < geo.positions() {
                let mut buf = vec![0.0f32; eng.window_len()];
                eng.extract(&mut buf);
                got.push(buf);
            }
        }
        // compare against host-side extraction, reordered to (f, dy, dx)
        let mut host = vec![0.0f32; geo.window_volume()];
        for (i, (y0, x0)) in dfcnn::tensor::iter::WindowPositions::new(geo).enumerate() {
            dfcnn::tensor::iter::extract_window(&img, &geo, y0, x0, &mut host);
            for f in 0..geo.input.c {
                for dy in 0..geo.kh {
                    for dx in 0..geo.kw {
                        let hv = host[(dy * geo.kw + dx) * geo.input.c + f];
                        let ev = got[i][(f * geo.kh + dy) * geo.kw + dx];
                        prop_assert_eq!(hv, ev, "window {} fm {} ({},{})", i, f, dy, dx);
                    }
                }
            }
        }
        // full buffering: occupancy never exceeded the paper's minimum
        prop_assert!(eng.max_occupancy() <= eng.capacity_per_port());
    }

    /// *Minimality* of full buffering: holding even one value less than
    /// the capacity bound can never complete a window (stride 1), so any
    /// smaller buffer deadlocks the pipeline.
    #[test]
    fn full_buffering_is_minimal((geo, ports) in geometry()) {
        prop_assume!(geo.stride == 1);
        let mut eng = WindowEngine::new(geo, ports);
        let cap = eng.capacity_per_port();
        let stream_len = eng.port_stream_len() as usize;
        // feed freely but never allow more than cap-1 values on chip
        let mut fed = vec![0usize; ports];
        for _ in 0..(stream_len * 4) {
            for (p, fed_p) in fed.iter_mut().enumerate() {
                if *fed_p < stream_len && eng.can_accept(p) && eng.occupancy(p) < cap - 1 {
                    eng.accept(p, 0.5);
                    *fed_p += 1;
                }
            }
            prop_assert!(
                !eng.window_ready(),
                "window completed with only {} of {} values buffered",
                cap - 1,
                cap
            );
        }
    }
}

// ----------------------------------------------- hardware-order kernels

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hardware-order convolution agrees with the reference within
    /// float tolerance for arbitrary geometry and port grouping.
    #[test]
    fn conv_hw_matches_reference((geo, ports) in geometry(), k in 1usize..6, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let filters = dfcnn::tensor::init::conv_filters(&mut rng, k, geo.kh, geo.kw, geo.input.c);
        let bias = dfcnn::tensor::init::random_vector(&mut rng, k, -0.5, 0.5);
        let conv = Conv2d::new(geo, filters, bias, Activation::Tanh);
        let img = dfcnn::tensor::init::random_volume(&mut rng, geo.input, -1.0, 1.0);
        let hw = conv_forward_hw(&conv, ports, &img);
        let sw = conv.forward(&img);
        prop_assert!(hw.max_abs_diff(&sw) < 1e-3, "diff = {}", hw.max_abs_diff(&sw));
    }

    /// Pooling in hardware order agrees with the reference (max exactly,
    /// mean within rounding).
    #[test]
    fn pool_hw_matches_reference(h in 2usize..9, c in 1usize..5, seed in 0u64..1000,
                                 max_pool in proptest::bool::ANY) {
        let geo = ConvGeometry::new(Shape3::new(2 * h, 2 * h, c), 2, 2, 2, 0);
        let kind = if max_pool { PoolKind::Max } else { PoolKind::Mean };
        let pool = Pool2d::new(geo, kind);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let img = dfcnn::tensor::init::random_volume(&mut rng, geo.input, -1.0, 1.0);
        let hw = pool_forward_hw(&pool, &img);
        let sw = pool.forward(&img);
        if max_pool {
            prop_assert_eq!(hw, sw);
        } else {
            prop_assert!(hw.max_abs_diff(&sw) < 1e-5);
        }
    }

    /// FC in hardware order agrees with the reference for any bank count.
    #[test]
    fn fc_hw_matches_reference(i in 1usize..120, j in 1usize..20, banks in 1usize..16,
                               seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = dfcnn::tensor::init::linear_weights(&mut rng, i, j);
        let b = dfcnn::tensor::init::random_vector(&mut rng, j, -0.5, 0.5);
        let fc = Linear::new(w, b, Activation::Identity);
        let x = dfcnn::tensor::init::random_volume(&mut rng, Shape3::new(1, 1, i), -1.0, 1.0);
        let hw = fc_forward_hw(&fc, banks, &x);
        let sw = fc.forward(&x);
        prop_assert!(hw.max_abs_diff(&sw) < 1e-3);
    }

    /// The §IV-B equivalence: a Linear layer is exactly a 1x1 Conv2d.
    #[test]
    fn linear_is_1x1_conv(i in 1usize..60, j in 1usize..10, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = dfcnn::tensor::init::linear_weights(&mut rng, i, j);
        let b = dfcnn::tensor::init::random_vector(&mut rng, j, -0.5, 0.5);
        let fc = Linear::new(w.clone(), b.clone(), Activation::Tanh);
        let geo = ConvGeometry::new(Shape3::new(1, 1, i), 1, 1, 1, 0);
        let conv = Conv2d::new(geo, w, b, Activation::Tanh);
        let x = dfcnn::tensor::init::random_volume(&mut rng, Shape3::new(1, 1, i), -1.0, 1.0);
        prop_assert_eq!(fc.forward(&x), conv.forward(&x));
    }
}

// ------------------------------------------------------------- fixed point

proptest! {
    /// Q15.16 roundtrips are within half an LSB and arithmetic saturates
    /// instead of wrapping.
    #[test]
    fn q16_quantisation_bounded(v in -30000.0f64..30000.0) {
        use dfcnn::tensor::fixed::Q16;
        let q = Q16::from_f64(v);
        prop_assert!((q.to_f64() - v).abs() <= Q16::epsilon() / 2.0 + 1e-9);
    }

    #[test]
    fn q16_add_saturates(a in -40000.0f64..40000.0, b in -40000.0f64..40000.0) {
        use dfcnn::tensor::fixed::Q16;
        let qa = Q16::from_f64(a);
        let qb = Q16::from_f64(b);
        let sum = qa + qb;
        prop_assert!(sum >= Q16::MIN && sum <= Q16::MAX);
        let exact = a + b;
        // exactness only holds when neither operand nor the result
        // saturated the Q15.16 range (~±32768)
        if a.abs() < 32000.0 && b.abs() < 32000.0 && exact.abs() < 32000.0 {
            prop_assert!((sum.to_f64() - exact).abs() <= 2.0 * Q16::epsilon());
        }
    }
}

// ------------------------------------- fork/join reconvergence buffering

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The static reconvergence-buffering rule is *sound* against the
    /// dynamic machine on random fork/join DAGs: auto-sized skip FIFOs
    /// are always checker-clean and the simulation always drains, and
    /// when clamping every skip FIFO to one slot does deadlock the
    /// machine, the checker must have predicted it. (The converse is
    /// deliberately not asserted: the rule is a conservative
    /// over-approximation — pipeline registers and window-engine slack it
    /// doesn't model can let a flagged design squeak through.)
    #[test]
    fn reconvergence_rule_is_sound(seed in 0u64..10_000) {
        let design = random_dag_design(seed, DesignConfig::default());
        prop_assert!(check_design(&design).is_clean(), "auto-sized DAG not clean");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5AFE);
        let shape = design.network().input_shape();
        let images = vec![dfcnn::tensor::init::random_volume(&mut rng, shape, 0.0, 1.0)];
        design.instantiate(&images).try_run().expect("clean DAG must drain");

        let clamped = random_dag_design(seed, DesignConfig {
            skip_fifo_cap: Some(1),
            ..DesignConfig::default()
        });
        let starved = check_design(&clamped)
            .has(Severity::Error, RuleId::ReconvergenceBuffering);
        if let Err(SimError::Deadlock(_)) = clamped.instantiate(&images).try_run() {
            prop_assert!(
                starved,
                "machine deadlocked but the checker saw no reconvergence deficit"
            );
        }
    }
}

// --------------------------------------------- Tensor1 utility behaviours

#[test]
fn argmax_stability_on_seeded_batches() {
    // deterministic smoke check used by the verification machinery
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..50 {
        let v = dfcnn::tensor::init::random_vector(&mut rng, 10, -1.0, 1.0);
        let am = v.argmax();
        for i in 0..10 {
            assert!(v.get(i) <= v.get(am));
        }
    }
}

#[test]
fn tensor3_stream_order_is_axi_order() {
    // the layout contract everything depends on
    let t = Tensor3::from_fn(Shape3::new(3, 4, 2), |y, x, c| {
        (y * 100 + x * 10 + c) as f32
    });
    let mut expect = Vec::new();
    for y in 0..3 {
        for x in 0..4 {
            for c in 0..2 {
                expect.push((y * 100 + x * 10 + c) as f32);
            }
        }
    }
    assert_eq!(t.as_slice(), expect.as_slice());
    assert_eq!(t.flatten().as_slice(), expect.as_slice());
    assert_eq!(
        Tensor1::from_vec(expect.clone()).as_slice(),
        expect.as_slice()
    );
}
