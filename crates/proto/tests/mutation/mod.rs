//! Byte-level mutations of canonical wire bytes, shared by the codec
//! properties (`prop_wire`) and the connection-handler properties of
//! `dbp-server`, which include this file by path.

use proptest::prelude::*;

/// One byte-level edit; positions are reduced modulo the current
/// length when applied.
#[derive(Debug, Clone)]
pub enum Mutation {
    Flip {
        at: usize,
        bit: u8,
    },
    Insert {
        at: usize,
        byte: u8,
    },
    Delete {
        at: usize,
    },
    Truncate {
        at: usize,
    },
    /// Keep the prefix before `at`, then continue with the other
    /// frame's bytes from `from` on.
    Splice {
        at: usize,
        from: usize,
    },
}

pub fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    // Two in three inserted bytes are JSON structure, digits or key
    // letters, so mutants stay close enough to canonical for the fast
    // parser to accept some of them; the rest are arbitrary bytes.
    const ALPHABET: &[u8] = b"0123456789-{}[]\",: \nvbatrcesiz";
    let byte = prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        0u8..=255,
    ];
    let at = || 0usize..4096;
    prop_oneof![
        (at(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
        (at(), byte).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
        at().prop_map(|at| Mutation::Delete { at }),
        at().prop_map(|at| Mutation::Truncate { at }),
        (at(), at()).prop_map(|(at, from)| Mutation::Splice { at, from }),
    ]
}

pub fn mutate(mut bytes: Vec<u8>, other: &[u8], mutations: &[Mutation]) -> Vec<u8> {
    for m in mutations {
        let len = bytes.len();
        match *m {
            Mutation::Flip { at, bit } if len > 0 => bytes[at % len] ^= 1 << bit,
            Mutation::Insert { at, byte } => bytes.insert(at % (len + 1), byte),
            Mutation::Delete { at } if len > 0 => {
                bytes.remove(at % len);
            }
            Mutation::Truncate { at } => bytes.truncate(at % (len + 1)),
            Mutation::Splice { at, from } => {
                bytes.truncate(at % (len + 1));
                bytes.extend_from_slice(&other[from % (other.len() + 1)..]);
            }
            _ => {}
        }
    }
    bytes
}
