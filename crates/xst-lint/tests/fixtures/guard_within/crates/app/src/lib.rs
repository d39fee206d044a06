//! Seeded defect: a second exponential search, grown outside the one
//! file the `one-partition` guard lets define it.

pub fn first_at_or_after(hay: &[u32], needle: u32) -> usize {
    gallop(hay, 0, needle)
}

fn gallop(hay: &[u32], from: usize, needle: u32) -> usize {
    let mut step = 1;
    while from + step < hay.len() && hay[from + step] < needle {
        step *= 2;
    }
    from + hay[from..hay.len().min(from + step + 1)].partition_point(|&m| m < needle)
}
