//! Just enough JSON for the ledger to write its result line. The workspace
//! builds offline with no registry crates, so there is no serde.

/// Quote `s` as a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit Rust's shortest round-trip form keeps.
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_and_keeps_every_digit() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(quote("\u{1}"), r#""\u0001""#);
        assert_eq!(num(0.8127), "0.8127");
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.1 + 0.2).parse::<f64>(), Ok(0.1 + 0.2));
    }
}
