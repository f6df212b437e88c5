//! A warm request's cost must not grow with the prelude.
//!
//! One `run_compiled` and one `typecheck` of a program that touches
//! no prelude binding (`1 + 2`) must make exactly as many heap
//! allocations on a chain-64 prelude as on a chain-8 one. Every piece
//! of per-session state a request consults (the System F environment
//! of the preservation check, the compiled globals, the implicit
//! environment) is built once at construction; a request that copied
//! or rebuilt any of it would allocate in proportion to the prelude.
//!
//! The counting allocator is per thread (modelled on
//! `systemf/tests/alloc_count.rs`), so tests running in parallel
//! under the default harness never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{BinOp, Declarations, Expr};
use implicit_pipeline::{Prelude, Session};

struct CountingAlloc;

thread_local! {
    // `const` initializer with no destructor: reading it never
    // allocates, so the allocator itself may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `(run_compiled, typecheck)` allocation counts of `1 + 2` on a warm
/// session over `Prelude::chain(n)`.
fn request_allocs(n: usize) -> (u64, u64) {
    let decls = Declarations::default();
    let prelude = Prelude::chain(n);
    let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
    let e = Expr::binop(BinOp::Add, Expr::Int(1), Expr::Int(2));
    // One untimed pass grows the session's reusable buffers.
    sess.run_compiled(&e).unwrap();
    sess.typecheck(&e).unwrap();
    let run = allocs_during(|| {
        let out = sess.run_compiled(&e).unwrap();
        assert_eq!(out.value.to_string(), "3");
    });
    let check = allocs_during(|| {
        sess.typecheck(&e).unwrap();
    });
    (run, check)
}

#[test]
fn request_allocations_do_not_grow_with_the_prelude() {
    let small = request_allocs(8);
    let large = request_allocs(64);
    assert_eq!(
        small, large,
        "(run_compiled, typecheck) allocations of `1 + 2`: chain-8 {small:?}, chain-64 {large:?}"
    );
}
