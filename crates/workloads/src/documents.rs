//! Synthetic GOV2-style document corpus.
//!
//! The trigram workload (Fig 7(f)) needs what the paper's 156 GB GOV2
//! sample provided: documents of natural-language-like text whose word
//! trigrams form a *large* key space with a *flatter* frequency
//! distribution than click-stream user ids — flat enough that INC-hash's
//! first-come key residency already captures most hot trigrams, which is
//! why DINC-hash barely beats INC-hash there. A Zipf(~0.9) vocabulary
//! reproduces that regime.

use crate::clickstream::push_decimal;
use crate::zipf::Zipf;
use opa_common::rng::SplitMix64;
use opa_core::job::JobInput;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct DocumentSpec {
    /// Approximate corpus size in bytes.
    pub target_bytes: u64,
    /// Vocabulary size.
    pub vocabulary: usize,
    /// Zipf exponent of word frequency (natural text ≈ 1.0; GOV2-ish
    /// trigram flatness comes from values below 1).
    pub zipf_exponent: f64,
    /// Words per document.
    pub words_per_doc: usize,
}

impl DocumentSpec {
    /// A tiny corpus for unit tests.
    pub fn small() -> Self {
        DocumentSpec {
            target_bytes: 64 * 1024,
            vocabulary: 300,
            zipf_exponent: 0.9,
            words_per_doc: 60,
        }
    }

    /// A paper-scale corpus (1/1024 of 156 GB by default).
    pub fn paper_scaled(target_bytes: u64) -> Self {
        DocumentSpec {
            target_bytes,
            vocabulary: 12_000,
            zipf_exponent: 0.9,
            words_per_doc: 120,
        }
    }

    /// Generates the corpus deterministically from `seed`. Each record is
    /// one document: space-separated words.
    pub fn generate(&self, seed: u64) -> JobInput {
        let mut rng = SplitMix64::new(seed);
        let zipf = Zipf::new(self.vocabulary, self.zipf_exponent);
        let mut input = JobInput::builder();
        let mut bytes = 0u64;
        while bytes < self.target_bytes {
            input.push_with(|doc| {
                let start = doc.len();
                for i in 0..self.words_per_doc {
                    if i > 0 {
                        doc.push(b' ');
                    }
                    doc.push(b'w');
                    push_decimal(doc, zipf.sample(&mut rng) as u64, 5);
                }
                bytes += (doc.len() - start) as u64;
            });
        }
        input.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn reaches_target_size() {
        let spec = DocumentSpec::small();
        let input = spec.generate(1);
        assert!(input.total_bytes() >= spec.target_bytes);
        assert!(input.total_bytes() < spec.target_bytes + 8 * 1024);
    }

    #[test]
    fn documents_have_expected_word_count() {
        let spec = DocumentSpec::small();
        let input = spec.generate(2);
        for rec in &input.records {
            let words = rec.split(|&b| b == b' ').count();
            assert_eq!(words, spec.words_per_doc);
        }
    }

    #[test]
    fn trigram_distribution_is_flatter_than_clicks() {
        // The top trigram should hold a much smaller share than the top
        // user holds in the click stream — the property Fig 7(f) rests on.
        let input = DocumentSpec::small().generate(3);
        let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut total = 0u64;
        for rec in &input.records {
            let words: Vec<&[u8]> = rec.split(|&b| b == b' ').collect();
            for w in words.windows(3) {
                let mut key = w[0].to_vec();
                key.push(b' ');
                key.extend_from_slice(w[1]);
                key.push(b' ');
                key.extend_from_slice(w[2]);
                *counts.entry(key).or_default() += 1;
                total += 1;
            }
        }
        let max = counts.values().copied().max().unwrap_or(0);
        assert!(
            counts.len() > 500,
            "trigram space too small: {}",
            counts.len()
        );
        assert!(
            (max as f64) / (total as f64) < 0.05,
            "top trigram share too high: {}",
            max as f64 / total as f64
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DocumentSpec::small().generate(9);
        let b = DocumentSpec::small().generate(9);
        assert_eq!(a.records, b.records);
    }
}
