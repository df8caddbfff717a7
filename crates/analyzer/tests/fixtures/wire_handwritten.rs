//! A hand-written `Wire` impl for the wire-handwritten rule: outside
//! `crates/wire/` it must be a finding, however correct it looks.
//! Never compiled — parsed by `crates/analyzer/tests/passes.rs`.

pub struct BrokenMsg {
    key: u64,
}

impl Wire for BrokenMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.key.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(BrokenMsg {
            key: u64::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.key.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    // Test-only impls are not findings.
    impl Wire for Probe {
        fn encode(&self, _: &mut BytesMut) {}
        fn decode(_: &mut Bytes) -> Result<Self, WireError> {
            Ok(Probe)
        }
        fn encoded_len(&self) -> usize {
            0
        }
    }
}
