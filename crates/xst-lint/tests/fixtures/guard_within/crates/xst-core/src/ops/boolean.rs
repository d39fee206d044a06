//! The negative: the allowed path may define the search.

pub fn gallop(hay: &[u32], from: usize, needle: u32) -> usize {
    from + hay[from..].partition_point(|&m| m < needle)
}
