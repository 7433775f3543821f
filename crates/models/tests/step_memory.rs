//! Peak live heap of one training step, counted by the allocator rather
//! than read from the process's resident set, so the bound is exact and
//! the same on every host.
//!
//! A width-8 ResNet-20 trains one step at batch 32 on 16x16 inputs, with
//! 1-thread SR13 engines and a serial trainer runtime, so every
//! allocation happens in one fixed order. A convolution caches its input
//! (an `Arc` share of a tensor that already exists) and drops each
//! layout buffer after the product that reads it; caching the `f32`
//! im2row matrices instead, about 25 MB of them at this size, breaks
//! the bound.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use srmac_models::{data, resnet, TrainConfig, Trainer};
use srmac_qgemm::{MacGemm, MacGemmConfig};
use srmac_tensor::{GemmEngine, Numerics, Runtime};

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s contract is the one callers get; the counters
// only observe sizes.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most bytes one step may hold live on top of what existed before
/// it: the measured 9,013,037 plus about 10%. The same step with each
/// convolution also holding its `f32` im2row matrix from forward to the
/// end of its backward measured 33,387,235.
const STEP_PEAK_BYTES: usize = 9_900_000;

/// One step of the width-8 ResNet-20 stays under [`STEP_PEAK_BYTES`] of
/// live heap.
#[test]
fn one_training_step_stays_under_its_peak_heap_bound() {
    let atom: MacGemmConfig = "fp8_fp12_sr13".parse().unwrap();
    let engine = Arc::new(MacGemm::new(atom.with_threads(1))) as Arc<dyn GemmEngine>;
    let mut model = resnet::resnet20_with(&Numerics::uniform(engine), 8, 10, 42);
    let ds = data::synth_cifar10(32, 16, 9);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (x, labels) = ds.batch(&idx);
    let cfg = TrainConfig {
        batch_size: 32,
        replicas: 1,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(&cfg).with_runtime(Arc::new(Runtime::serial()));

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let loss = trainer.train_step(&mut model, &x, &labels, 0.05);
    let peak = PEAK.load(Relaxed) - before;
    assert!(loss.is_finite(), "the step must train: loss {loss}");
    eprintln!("step peak live heap: {peak} bytes");
    assert!(
        peak <= STEP_PEAK_BYTES,
        "one step held {peak} bytes live at its peak, over the bound {STEP_PEAK_BYTES}"
    );
}
