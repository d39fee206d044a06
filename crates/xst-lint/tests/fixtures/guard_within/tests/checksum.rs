//! Seeded defect: guards search root tests too — a checksum re-grown in
//! an integration test is still a second checksum.

fn crc32(data: &[u8]) -> u32 {
    data.iter().fold(0, |acc, &b| acc.rotate_left(5) ^ u32::from(b))
}

#[test]
fn frames_carry_a_checksum() {
    assert_ne!(crc32(b"frame"), 0);
}
