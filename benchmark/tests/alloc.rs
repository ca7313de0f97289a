//! The counting allocator, alone in its own process so that nothing else
//! allocates while it is being read.

use dosgi_benchmark::alloc::AllocCount;
use std::hint::black_box;

#[test]
fn counts_a_known_vec_sequence_exactly() {
    let before = AllocCount::now();
    let mut v: Vec<u8> = black_box(Vec::with_capacity(100)); // alloc, 100 bytes
    v.extend_from_slice(&[1; 100]); // fits
    v.reserve_exact(200); // realloc to 100 + 200 bytes
    let zeroed = black_box(vec![0u64; 16]); // alloc_zeroed, 128 bytes
    let text = black_box(String::from("twelve bytes")); // alloc, 12 bytes
    let used = AllocCount::now().since(before);
    assert_eq!(used.allocs, 4);
    assert_eq!(used.bytes, 100 + 300 + 128 + 12);

    // Frees are not counted, and an untouched heap reads the same twice.
    drop((v, zeroed, text));
    assert_eq!(AllocCount::now().since(before), used);
    assert_eq!(
        AllocCount::now().since(AllocCount::now()),
        AllocCount::default()
    );
}
