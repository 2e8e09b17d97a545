//! Seeded byte mutations over the hand-rolled parsers that read bytes from
//! outside the process — the Matrix Market reader over every `.mtx`
//! fixture, and the JSON reader plus `FailureCorpus::from_json` over the
//! committed failure corpus.  Every mutated input must come back as `Err`
//! or a valid value: no panic, no abort, no allocation sized by a number
//! the file merely declares.  (There is no cargo-fuzz in this toolchain;
//! a fixed seed keeps every failure reproducible.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use abft_suite::faultsim::json::Json;
use abft_suite::faultsim::FailureCorpus;
use abft_suite::sparse::matrix_market::parse_matrix_market;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const MUTATIONS_PER_FILE: usize = 3000;

/// Bytes the formats give meaning to, so a mutation often lands on a
/// token boundary instead of only ever producing unparsable noise.
const INTERESTING: &[u8] = b"0123456789 \n\t-+.eE%{}[]\",:";

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// One to three random edits: flip a bit, overwrite, insert, delete, or
/// duplicate a short span.
fn mutate(rng: &mut ChaCha8Rng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let at = rng.gen_range(0..out.len() + 1);
        let interesting = INTERESTING[rng.gen_range(0..INTERESTING.len())];
        match rng.gen_range(0..6u32) {
            0 if at < out.len() => out[at] ^= 1 << rng.gen_range(0..8u32),
            1 if at < out.len() => out[at] = rng.next_u32() as u8,
            2 if at < out.len() => out[at] = interesting,
            3 => out.insert(at, interesting),
            4 if at < out.len() => {
                out.remove(at);
            }
            _ => {
                let end = (at + rng.gen_range(1..=16usize)).min(out.len());
                let span = out[at..end].to_vec();
                out.splice(at..at, span);
            }
        }
    }
    out
}

/// Replaces one number of the size line (the first line after the header
/// that is neither blank nor a comment).  Row and column counts stay small:
/// the row histogram costs `4 · (rows + 1)` bytes by construction of CSR,
/// which a declared row count may legitimately demand.
fn mutate_size_line(rng: &mut ChaCha8Rng, input: &str) -> String {
    const DIMS: &[&str] = &["0", "1", "2", "5", "12", "100000", "-1", "1.5", ""];
    const COUNTS: &[&str] = &[
        "0",
        "1",
        "100",
        "65537",
        "4000000000",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-3",
    ];
    let mut lines: Vec<String> = input.lines().map(str::to_owned).collect();
    let Some(size) = lines
        .iter()
        .skip(1)
        .position(|l| !l.trim().is_empty() && !l.starts_with('%'))
        .map(|i| i + 1)
    else {
        return input.to_owned();
    };
    let mut tokens: Vec<String> = lines[size].split_whitespace().map(str::to_owned).collect();
    let slot = rng.gen_range(0..tokens.len().max(1));
    let pool = if slot < 2 { DIMS } else { COUNTS };
    let value = pool[rng.gen_range(0..pool.len())].to_owned();
    match tokens.get_mut(slot) {
        Some(token) => *token = value,
        None => tokens.push(value),
    }
    lines[size] = tokens.join(" ");
    lines.join("\n") + "\n"
}

/// Runs `parse` on every input, collecting those that panicked.
fn panicking_inputs(inputs: &[Vec<u8>], parse: impl Fn(&[u8])) -> Vec<String> {
    inputs
        .iter()
        .filter(|input| catch_unwind(AssertUnwindSafe(|| parse(input))).is_err())
        .map(|input| String::from_utf8_lossy(input).into_owned())
        .collect()
}

fn assert_no_panics(what: &str, panicked: Vec<String>) {
    assert!(
        panicked.is_empty(),
        "{what}: {} mutated inputs panicked; the first:\n{}",
        panicked.len(),
        panicked[0]
    );
}

#[test]
fn mutated_matrix_market_files_parse_to_err_or_a_valid_matrix() {
    let mut rng = ChaCha8Rng::seed_from_u64(20170906);
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixtures())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "mtx"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 5, "{files:?}");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let inputs: Vec<Vec<u8>> = (0..MUTATIONS_PER_FILE)
            .map(|k| match k % 4 {
                0 => mutate_size_line(&mut rng, &text).into_bytes(),
                _ => mutate(&mut rng, text.as_bytes()),
            })
            .collect();
        let panicked = panicking_inputs(&inputs, |input| {
            if let Ok(m) = parse_matrix_market(input) {
                // A parsed matrix is canonical CSR within its own shape.
                let ptr = m.row_pointer();
                assert_eq!(ptr.len(), m.rows() + 1);
                assert_eq!(ptr[m.rows()] as usize, m.nnz());
                assert!(m.col_indices().iter().all(|&c| (c as usize) < m.cols()));
            }
        });
        assert_no_panics(&file.display().to_string(), panicked);
    }
}

#[test]
fn mutated_failure_corpus_parses_to_err_or_a_valid_corpus() {
    let mut rng = ChaCha8Rng::seed_from_u64(20170907);
    let text = std::fs::read(fixtures().join("failures_seed.json")).unwrap();
    let inputs: Vec<Vec<u8>> = (0..MUTATIONS_PER_FILE)
        .map(|_| mutate(&mut rng, &text))
        .collect();
    let panicked = panicking_inputs(&inputs, |input| {
        let Ok(text) = std::str::from_utf8(input) else {
            return;
        };
        if let Ok(corpus) = Json::parse(text).and_then(|doc| FailureCorpus::from_json(&doc)) {
            // What parses must survive its own round trip.
            let again = FailureCorpus::from_json(&corpus.to_json()).unwrap();
            assert_eq!(again, corpus);
        }
    });
    assert_no_panics("failures_seed.json", panicked);
}
