//! Pass 4: protocol-dispatch exhaustiveness.
//!
//! The wire protocol encodes request/response kinds as literal tag bytes
//! in `proto.rs` match arms. This pass recovers three mappings without
//! running anything:
//!
//! * variant -> encode tag (the first `push(<int>)` in each
//!   `Request::X`/`Response::X` arm of the encode fn),
//! * decode tag -> variant (each `<int> =>` arm of the decode fn that
//!   constructs a variant; pure error arms are skipped),
//! * the set of `Request::X` patterns dispatched in `Session::handle`.
//!
//! It then checks: encode tags are a bijection (no duplicate or missing
//! tags), decode agrees with encode tag-for-tag, every request variant
//! is dispatched by name in `handle` (a `_ =>` wildcard cannot silently
//! swallow a new kind — the by-name check still fails).
//!
//! `Session::handle` is the **only** dispatch table held to that. The
//! other two `Door`s are not second tables to keep exhaustive: the
//! client forwards every request unread, and the coordinator's `match`
//! (`xst-client/src/coord.rs`) deliberately answers the store verbs only
//! and refuses the rest by name with a typed `Protocol` error — a new
//! request kind is one server's to answer until someone decides what it
//! means across shards.

use std::collections::{BTreeMap, BTreeSet};

use crate::syntax::{self, FnDecl};
use crate::{push_finding, FileRecord, Workspace};

struct Variant {
    name: String,
    /// Offset of the variant name in the blanked code.
    at: usize,
}

pub fn analyze(ws: &Workspace, findings: &mut Vec<crate::Finding>) {
    let proto = ws
        .files
        .iter()
        .position(|r| r.crate_name == "xst-server" && r.rel.ends_with("src/proto.rs"));
    let session = ws
        .files
        .iter()
        .position(|r| r.crate_name == "xst-server" && r.rel.ends_with("src/session.rs"));
    let Some(pi) = proto else { return };
    let prec = &ws.files[pi];

    for (enum_name, encode_fns, decode_fns) in [
        (
            "Request",
            &["encode_into", "encode"][..],
            &["decode_body", "decode"][..],
        ),
        ("Response", &["encode"][..], &["decode"][..]),
    ] {
        let Some(variants) = parse_enum(prec, enum_name) else {
            push_finding(
                findings,
                &prec.rel,
                1,
                "proto-dispatch",
                format!("cannot locate `enum {enum_name}` in proto.rs"),
                false,
            );
            continue;
        };
        let encode = find_impl_fn(prec, enum_name, encode_fns);
        let decode = find_impl_fn(prec, enum_name, decode_fns);
        let Some(encode) = encode else {
            push_finding(
                findings,
                &prec.rel,
                1,
                "proto-dispatch",
                format!("cannot locate the `{enum_name}` encode fn in proto.rs"),
                false,
            );
            continue;
        };
        let Some(decode) = decode else {
            push_finding(
                findings,
                &prec.rel,
                1,
                "proto-dispatch",
                format!("cannot locate the `{enum_name}` decode fn in proto.rs"),
                false,
            );
            continue;
        };

        let enc_map = encode_tags(prec, enum_name, encode);
        let dec_map = decode_tags(prec, enum_name, decode);

        // Encode side: every variant tagged, tags unique.
        let mut by_tag: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for v in &variants {
            match enc_map.get(&v.name) {
                Some(&(tag, _)) => by_tag.entry(tag).or_default().push(&v.name),
                None => push_finding(
                    findings,
                    &prec.rel,
                    prec.view.line_of(v.at),
                    "proto-dispatch",
                    format!("`{enum_name}::{}` has no encode tag", v.name),
                    false,
                ),
            }
        }
        for (tag, names) in &by_tag {
            if names.len() > 1 {
                let joined = names
                    .iter()
                    .map(|n| format!("`{enum_name}::{n}`"))
                    .collect::<Vec<_>>()
                    .join(" and ");
                push_finding(
                    findings,
                    &prec.rel,
                    prec.view.line_of(enc_map[names[1]].1),
                    "proto-dispatch",
                    format!("{joined} both encode tag {tag}"),
                    false,
                );
            }
        }
        // Decode side must mirror encode, tag for tag.
        for (name, &(tag, at)) in &enc_map {
            match dec_map.get(&tag) {
                None => push_finding(
                    findings,
                    &prec.rel,
                    prec.view.line_of(at),
                    "proto-dispatch",
                    format!("tag {tag} (`{enum_name}::{name}`) has no decode arm"),
                    false,
                ),
                Some((dname, dat)) if dname != name => push_finding(
                    findings,
                    &prec.rel,
                    prec.view.line_of(*dat),
                    "proto-dispatch",
                    format!(
                        "tag {tag} encodes `{enum_name}::{name}` but decodes `{enum_name}::{dname}`"
                    ),
                    false,
                ),
                _ => {}
            }
        }
        for (tag, (dname, dat)) in &dec_map {
            if enc_map.get(dname).is_none_or(|(t, _)| t != tag) && !by_tag.contains_key(tag) {
                push_finding(
                    findings,
                    &prec.rel,
                    prec.view.line_of(*dat),
                    "proto-dispatch",
                    format!(
                        "decode arm for tag {tag} constructs `{enum_name}::{dname}` but nothing encodes that tag"
                    ),
                    false,
                );
            }
        }

        // Dispatch: requests only.
        if enum_name != "Request" {
            continue;
        }
        let Some(si) = session else {
            push_finding(
                findings,
                &prec.rel,
                1,
                "proto-dispatch",
                "cannot locate session.rs next to proto.rs".to_string(),
                false,
            );
            continue;
        };
        let srec = &ws.files[si];
        let Some(handle) = find_impl_fn(srec, "Session", &["handle"]) else {
            push_finding(
                findings,
                &srec.rel,
                1,
                "proto-dispatch",
                "cannot locate `Session::handle` in session.rs".to_string(),
                false,
            );
            continue;
        };
        let body = handle.body.expect("handle has a body");
        let code = &srec.view.code;
        // Every `Request::X` pattern named in handle.
        let mut dispatched: BTreeSet<&str> = BTreeSet::new();
        let mut from = body.0;
        while let Some(p) = code[from..body.1].find("Request::") {
            let at = from + p;
            from = at + "Request::".len();
            let b = code.as_bytes();
            if !b.get(from).is_some_and(|c| c.is_ascii_uppercase()) {
                continue;
            }
            let mut k = from;
            while k < b.len() && syntax::is_ident_char(b[k]) {
                k += 1;
            }
            dispatched.insert(&code[from..k]);
        }
        for v in variants
            .iter()
            .filter(|v| !dispatched.contains(v.name.as_str()))
        {
            push_finding(
                findings,
                &srec.rel,
                srec.view.line_of(body.0),
                "proto-dispatch",
                format!(
                    "`Request::{}` is not dispatched in `Session::handle`",
                    v.name
                ),
                false,
            );
        }
    }
}

/// Parse the named enum's variants.
fn parse_enum(rec: &FileRecord, name: &str) -> Option<Vec<Variant>> {
    let code = &rec.view.code;
    let b = code.as_bytes();
    let mut from = 0;
    let open = loop {
        let p = code[from..].find("enum ")?;
        let at = from + p;
        from = at + 1;
        if at > 0 && syntax::is_ident_char(b[at - 1]) {
            continue;
        }
        let rest = code[at + "enum ".len()..].trim_start();
        if rest.starts_with(name)
            && !rest[name.len()..].starts_with(|c: char| syntax::is_ident_char(c as u8))
        {
            let brace = code[at..].find('{')? + at;
            break brace;
        }
    };
    let close = syntax::matching(b, open);
    let mut variants = Vec::new();
    let mut depth = 0isize;
    let mut i = open + 1;
    let mut piece_start = open + 1;
    while i <= close {
        let c = b[i];
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if i < close => depth -= 1,
            _ => {}
        }
        if (c == b',' && depth == 0) || i == close {
            let piece = &code[piece_start..i];
            if let Some((at, name)) = variant_name(piece, piece_start) {
                variants.push(Variant { name, at });
            }
            piece_start = i + 1;
        }
        i += 1;
    }
    Some(variants)
}

/// First identifier of an enum-variant fragment (skipping blanked attrs).
fn variant_name(piece: &str, base: usize) -> Option<(usize, String)> {
    let b = piece.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'#' {
            // `#[...]` attribute: skip the bracket group.
            while i < b.len() && b[i] != b'[' {
                i += 1;
            }
            if i < b.len() {
                i = syntax::matching(b, i) + 1;
            }
            continue;
        }
        if b[i].is_ascii_uppercase() {
            let mut k = i;
            while k < b.len() && syntax::is_ident_char(b[k]) {
                k += 1;
            }
            return Some((base + i, piece[i..k].to_string()));
        }
        if b[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        return None;
    }
    None
}

/// Find a fn by candidate names within `impl ty`.
fn find_impl_fn<'a>(rec: &'a FileRecord, ty: &str, names: &[&str]) -> Option<&'a FnDecl> {
    for n in names {
        if let Some(f) = rec
            .model
            .fns
            .iter()
            .find(|f| f.name == *n && f.self_type.as_deref() == Some(ty) && f.body.is_some())
        {
            return Some(f);
        }
    }
    None
}

/// variant -> (tag, offset) from the encode fn: the first `push(<int>)`
/// after each `Enum::X` pattern.
fn encode_tags(rec: &FileRecord, enum_name: &str, f: &FnDecl) -> BTreeMap<String, (u64, usize)> {
    let body = f.body.expect("encode fn has a body");
    let code = &rec.view.code;
    let b = code.as_bytes();
    let pat = format!("{enum_name}::");
    let mut occ: Vec<(usize, String)> = Vec::new();
    let mut from = body.0;
    while let Some(p) = code[from..body.1].find(&pat) {
        let at = from + p;
        from = at + pat.len();
        if !b.get(from).is_some_and(|c| c.is_ascii_uppercase()) {
            continue;
        }
        let mut k = from;
        while k < b.len() && syntax::is_ident_char(b[k]) {
            k += 1;
        }
        occ.push((at, code[from..k].to_string()));
    }
    let mut out = BTreeMap::new();
    for (i, (at, name)) in occ.iter().enumerate() {
        let arm_end = occ.get(i + 1).map(|(a, _)| *a).unwrap_or(body.1);
        let span = &code[*at..arm_end];
        let mut sfrom = 0;
        while let Some(p) = span[sfrom..].find("push(") {
            let pa = sfrom + p;
            sfrom = pa + 1;
            let arg = span[pa + "push(".len()..]
                .split(')')
                .next()
                .unwrap_or("")
                .trim();
            if let Ok(tag) = arg.parse::<u64>() {
                out.entry(name.clone()).or_insert((tag, *at));
                break;
            }
        }
    }
    out
}

/// tag -> (variant, offset) from the decode fn: each integer-literal
/// match arm that constructs `Enum::X` (pure error arms are skipped).
fn decode_tags(rec: &FileRecord, enum_name: &str, f: &FnDecl) -> BTreeMap<u64, (String, usize)> {
    let body = f.body.expect("decode fn has a body");
    let code = &rec.view.code;
    let b = code.as_bytes();
    // Arm labels: integer literal followed (modulo an `if` guard) by `=>`.
    let mut labels: Vec<(usize, u64)> = Vec::new();
    let mut i = body.0;
    while i < body.1.min(b.len()) {
        if b[i].is_ascii_digit()
            && (i == 0 || !syntax::is_ident_char(b[i - 1]))
            && (i == 0 || b[i - 1] != b'.')
        {
            let mut k = i;
            while k < b.len() && b[k].is_ascii_digit() {
                k += 1;
            }
            if k < b.len() && (b[k] == b'.' || syntax::is_ident_char(b[k])) {
                i = k;
                continue;
            }
            let mut q = k;
            while q < b.len() && b[q].is_ascii_whitespace() {
                q += 1;
            }
            let is_arm = if q + 1 < b.len() && b[q] == b'=' && b[q + 1] == b'>' {
                true
            } else if code[q..].starts_with("if ") {
                code[q..(q + 200).min(code.len())].contains("=>")
            } else {
                false
            };
            if is_arm {
                if let Ok(tag) = code[i..k].parse::<u64>() {
                    labels.push((i, tag));
                }
            }
            i = k;
        } else {
            i += 1;
        }
    }
    let pat = format!("{enum_name}::");
    let mut out = BTreeMap::new();
    for (li, (at, tag)) in labels.iter().enumerate() {
        let end = labels.get(li + 1).map(|(a, _)| *a).unwrap_or(body.1);
        // First *variant* construction in the arm: `Enum::Upper`. A
        // lowercase ident after `::` is an associated fn (e.g. the
        // recursive `Request::decode_body` inside the Traced arm).
        let mut sfrom = *at;
        while let Some(p) = code[sfrom..end].find(&pat) {
            let vstart = sfrom + p + pat.len();
            sfrom = vstart;
            if !b.get(vstart).is_some_and(|c| c.is_ascii_uppercase()) {
                continue;
            }
            let mut k = vstart;
            while k < b.len() && syntax::is_ident_char(b[k]) {
                k += 1;
            }
            out.entry(*tag)
                .or_insert((code[vstart..k].to_string(), *at));
            break;
        }
    }
    out
}
