//! Seeded defect: a third refusal kind lands beside the two the gate's
//! shortcut knows about; the test module's own error is not counted.

pub struct Diagnostic;

impl Diagnostic {
    pub fn error(code: u8) -> Diagnostic {
        let _ = code;
        Diagnostic
    }
}

pub fn go(unbound: bool, collides: bool, vacuous: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if unbound {
        out.push(Diagnostic::error(1));
    }
    if collides {
        out.push(Diagnostic::error(2));
    }
    if vacuous {
        out.push(Diagnostic::error(3));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders() {
        let _ = Diagnostic::error(9);
    }
}
