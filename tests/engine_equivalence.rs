//! Property-based cross-engine equivalence: on randomly generated
//! documents, the FluXQuery streaming engine, the DOM baseline and the
//! projection baseline must produce byte-identical output for every
//! catalog query — and FluXQuery must also agree with itself when the
//! algebraic optimizer is disabled.
//!
//! The workload-matrix properties extend the same idea across the
//! pathological generators: every named workload shape, at arbitrary
//! seeds and scales, must clear the full differential grid (all engines ×
//! sequential and shard counts {1, 2, 8}) via
//! `flux_conformance`.

use flux_conformance::{
    assert_engines_equivalent, assert_stream_equivalent, catalog, engine_configurations,
    run_engine, run_engine_with, workloads, Domain,
};
use fluxquery::EngineKind;
use proptest::prelude::*;

fn domains() -> impl Strategy<Value = Domain> {
    prop_oneof![
        Just(Domain::BibWeak),
        Just(Domain::BibFig1),
        Just(Domain::Auction),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// All four engine configurations agree on every applicable catalog
    /// query for arbitrary seeds and sizes.
    #[test]
    fn engines_agree_on_random_documents(
        seed in 0u64..10_000,
        scale in 1u32..12,
        domain in domains(),
    ) {
        let scale = scale as f64 / 20.0; // 0.05 .. 0.55
        let doc = domain.document(scale, seed);
        for q in catalog().into_iter().filter(|q| q.domain == domain) {
            let mut reference: Option<Vec<u8>> = None;
            for (label, kind, options) in engine_configurations() {
                let outcome = run_engine_with(kind, q.query, domain.dtd(), doc.as_bytes(), &options)
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", q.id, label));
                match &reference {
                    None => reference = Some(outcome.output),
                    Some(expected) => prop_assert_eq!(
                        &outcome.output,
                        expected,
                        "{} disagrees on {} (seed {}, scale {})",
                        label,
                        q.id,
                        seed,
                        scale
                    ),
                }
            }
        }
    }

    /// The FluX engine's peak buffer never exceeds the DOM engine's (it can
    /// only buffer less than the whole document).
    #[test]
    fn flux_never_buffers_more_than_dom(
        seed in 0u64..10_000,
        scale in 2u32..10,
    ) {
        let scale = scale as f64 / 10.0;
        let doc = Domain::BibWeak.document(scale, seed);
        let q = flux_conformance::Q3;
        let flux = run_engine(EngineKind::Flux, q, Domain::BibWeak.dtd(), doc.as_bytes()).unwrap();
        let dom = run_engine(EngineKind::Dom, q, Domain::BibWeak.dtd(), doc.as_bytes()).unwrap();
        prop_assert!(
            flux.stats.peak_buffer_bytes <= dom.stats.peak_buffer_bytes,
            "flux {} > dom {}",
            flux.stats.peak_buffer_bytes,
            dom.stats.peak_buffer_bytes
        );
    }
}

// The workload-matrix properties run the full conformance grid per case
// (engines × parallelisms), so each case is ~30 engine runs: a handful of cases per property already covers every workload id
// at several seeds.
proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    /// Every workload shape — at arbitrary seed and scale — streams
    /// identically through the sequential reader and every sharded
    /// configuration.
    #[test]
    fn workload_matrix_streams_agree(
        widx in 0u32..1_024,
        seed in 0u64..10_000,
        scale in 1u32..8,
    ) {
        let all = workloads();
        let w = &all[widx as usize % all.len()];
        let scale = scale as f64 / 10.0; // 0.1 .. 0.7
        let doc = w.document(scale, seed);
        assert_stream_equivalent(
            &format!("{} (seed {seed}, scale {scale})", w.id),
            doc.as_bytes(),
        );
    }

    /// Every query-bearing workload clears the engine grid: all engines
    /// and parallelisms produce the reference output and the reference
    /// stats.
    #[test]
    fn workload_matrix_engines_agree(
        widx in 0u32..1_024,
        seed in 0u64..10_000,
        scale in 1u32..6,
    ) {
        let all = workloads();
        let with_query: Vec<&flux_conformance::Workload> =
            all.iter().filter(|w| w.query.is_some()).collect();
        let w = with_query[widx as usize % with_query.len()];
        let scale = scale as f64 / 10.0; // 0.1 .. 0.5
        assert_engines_equivalent(w, scale, seed);
    }
}

/// Labels the DTD does not declare are interned into the plan's
/// vocabulary like declared ones: every configuration of the grid, the
/// FluX ones sequential and sharded, agrees on the bytes. The inputs:
/// XMP-Q1's `@year` (Figure 1 declares no attributes), a loop over an
/// undeclared element (the scheduler keeps it as an `on-first` handler
/// and a BDF edge, which the plan prunes, optimizer on or off), and an
/// undeclared attribute as the key of a keyed loop.
#[test]
fn undeclared_labels_agree_across_engines_and_modes() {
    use flux_conformance::catalog_query;
    use fluxquery::FluxEngine;

    let keyed = r#"<out>{ for $a in $ROOT/bib/book return
        for $b in $ROOT/bib/book where $b/@year = $a/@year
        return <pair>{$a/title}{$b/title}</pair> }</out>"#;
    let explain = FluxEngine::compile(keyed, Domain::BibFig1.dtd(), &Default::default())
        .unwrap()
        .explain();
    assert!(explain.contains("keyed on $b/@year"), "{explain}");
    // (input, query, a piece of the expected output)
    let queries = [
        ("XMP-Q1", catalog_query("XMP-Q1").query, "<book year=\""),
        (
            "undeclared handler",
            r#"<out>{ for $b in $ROOT/bib/book return
                for $z in $b/appendix return <z>{$z}</z> }</out>"#,
            "<out></out>",
        ),
        ("undeclared key", keyed, "<pair><title>"),
    ];
    // 400 books (~34 KiB): two shards really split it.
    let doc = Domain::BibFig1.document(4.0, 42);
    for (what, query, piece) in queries {
        let mut reference: Option<Vec<u8>> = None;
        for (label, kind, options) in engine_configurations() {
            let modes = match kind {
                EngineKind::Flux => vec![options.clone(), options.shards(2)],
                _ => vec![options],
            };
            for options in modes {
                let outcome =
                    run_engine_with(kind, query, Domain::BibFig1.dtd(), doc.as_bytes(), &options)
                        .unwrap_or_else(|e| panic!("{what}: {label} failed: {e}"));
                match &reference {
                    None => reference = Some(outcome.output),
                    Some(expected) => assert_eq!(
                        &outcome.output, expected,
                        "{what}: {label} ({options:?}) disagrees"
                    ),
                }
            }
        }
        let output = String::from_utf8(reference.unwrap_or_default()).unwrap();
        assert!(output.contains(piece), "{what}: {output}");
    }
}
