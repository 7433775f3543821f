//! Panic-hygiene fixture: two panics inside a `macro_rules!` body, one
//! in a comment there, the non-panicking `unwrap_or` family, and a bare
//! `.unwrap()` outside any macro (clippy's to catch).

macro_rules! first_byte {
    ($v:expr) => {{
        // a `.unwrap()` in a comment is not code
        let head = $v.first().unwrap();
        let tail = $v.last().expect("non-empty");
        $v.get(1).copied().unwrap_or(*head ^ *tail)
    }};
}

pub fn outside(v: Option<u8>) -> u8 {
    v.unwrap()
}
