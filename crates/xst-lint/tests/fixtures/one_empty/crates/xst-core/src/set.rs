//! Seeded defect: `∅` allocates again, beside the one constructor the
//! `one-empty` guard allows, and a symbol is shared from a second spelling.

use std::sync::Arc;

pub struct Set {
    members: Option<Arc<Vec<u32>>>,
}

impl Set {
    fn canonical(members: Vec<u32>) -> Set {
        Set {
            members: (!members.is_empty()).then(|| Arc::new(members)),
        }
    }

    pub fn empty() -> Set {
        Set {
            members: Some(Arc::new(Vec::new())),
        }
    }

    pub fn from_slice(members: &[u32]) -> Set {
        let shared: Arc<[u32]> = Arc::from(members);
        Set::canonical(shared.to_vec())
    }
}
